(** The full PSC protocol (Fenske et al. CCS'17, with the paper's TS
    coordinator): data collectors maintain oblivious tables of encrypted
    bits; computation parties add binomial noise, shuffle, rerandomize
    and jointly decrypt; the output is |union of the DCs' item sets|
    plus known binomial noise, corrected for hash collisions. *)

type tamper = {
  tampered_cp : int;
  action : [ `Shuffle_swap | `Noise_nonbit ];
}
(** Fault injection: make one CP misbehave (substitute a ciphertext
    mid-shuffle, or inject a non-bit "noise" slot with a forged proof)
    so tests can check the proofs identify the culprit. *)

type config = {
  table_size : int;
  num_cps : int;
  noise_flips_per_cp : int;
  tamper : tamper option;
  dp : Dp.Mechanism.params option;
      (** the (ε,δ) the configured noise was calibrated for; recorded
          as a budget grant + draw in the run ledger when present *)
}

val config :
  ?num_cps:int -> ?noise_flips_per_cp:int -> ?proof_rounds:int option ->
  ?verify:bool -> ?tamper:tamper -> ?dp:Dp.Mechanism.params ->
  table_size:int -> unit -> config
(** Every round proves and verifies its noise, shuffle and decryption
    proofs. Raises [Invalid_argument] on a non-positive table size, no
    CPs, negative flips or [verify] set to [false]. [?proof_rounds] is
    ignored and [?verify] accepts only [true]: both remain only because
    [perfbench/netbench.ml] still passes [~proof_rounds:(Some 2)
    ~verify:true]. No other caller passes them. *)

val flips_for_params : Dp.Mechanism.params -> sensitivity:float -> num_cps:int -> int
(** Per-CP flips so the total binomial noise gives (ε,δ)-DP. *)

type t

val create : config -> num_dcs:int -> seed:int -> t

val insert : t -> dc:int -> string -> unit
(** Record an item at a data collector (e.g. a client IP at a guard). *)

val true_union_size : t -> int
(** Simulator ground truth: the exact cardinality of the union of all
    DCs' item sets (not available to any real protocol party). *)

type result = {
  raw_nonzero : int;       (** decrypted non-identity slots *)
  total_flips : int;
  estimate : float;        (** collision- and noise-corrected cardinality *)
  ci : Stats.Ci.t;         (** 95% CI on the true cardinality *)
  proofs_ok : bool;        (** all noise/shuffle/decryption proofs verified *)
  culprits : int list;     (** CPs whose proofs failed, for blame/abort *)
}

val run : t -> result
(** Execute the pipeline and produce the cardinality estimate.
    Callable once. *)

(** {2 Per-phase functions}

    The round's derivations and checks, written once: {!run} drives
    them in-process and the bus-hosted parties ({!Node}) call them from
    their message handlers, so both record the same ledger proofs and
    publish the same bytes. *)

val dc_table :
  ?tab:Crypto.Group.precomp -> config -> seed:int -> dc:int -> Crypto.Elgamal.pub -> Table.t
(** DC [dc]'s empty oblivious table under the joint key, from the
    round's per-DC DRBG stream and slot-hash key. *)

val proven_noise :
  config -> ?tab:Crypto.Group.precomp -> Cp.t -> joint:Crypto.Elgamal.pub -> flips:int ->
  (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array
(** A CP's proven noise slots, with the configured [`Noise_nonbit]
    fault applied when this CP is the tampering one. *)

val cp_shuffle :
  config -> ?tab:Crypto.Group.precomp -> Cp.t -> joint:Crypto.Elgamal.pub ->
  Crypto.Elgamal.ciphertext array ->
  Crypto.Elgamal.ciphertext array * Crypto.Shuffle.proof
(** A CP's proven shuffle, with the configured [`Shuffle_swap] fault
    applied when this CP is the tampering one. *)

type verifier
(** The tally server's side of a round: the CPs' verified keys and the
    culprits blamed so far. *)

val verifier : config -> (Crypto.Elgamal.pub * Crypto.Sigma.schnorr_proof) array -> verifier
(** Check each CP's key proof (index = CP id; one [psc-key] ledger
    proof each) and derive the joint key. Raises [Failure] on a bad
    proof: setup aborts. *)

val joint : verifier -> Crypto.Elgamal.pub

val check_noise :
  verifier -> cp:int -> (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array ->
  Crypto.Elgamal.ciphertext array
(** Batch-check one CP's noise bit proofs ([psc-noise-bit]); returns
    the slots. *)

val check_shuffle :
  verifier -> cp:int -> input:Crypto.Elgamal.ciphertext array ->
  output:Crypto.Elgamal.ciphertext array -> Crypto.Shuffle.proof option -> unit
(** Check one CP's shuffle of [input] ([psc-shuffle]) inside a
    [psc.verify_shuffle] ledger phase. A CP that returns no proof (a
    remote CP can send none over the wire), or a proof whose vectors do
    not match the input's length, fails outright. *)

val decrypt_count :
  verifier -> Crypto.Elgamal.ciphertext array -> Cp.decryption_share array -> int
(** Verify every CP's folded decryption proof ([psc-decrypt]; index =
    CP id), combine the shares and count the non-identity plaintexts.
    A missing proof, a forged share or a share vector whose length
    differs from the vector's blames its CP; a vector of the wrong
    length is also left out of the combination. Raises
    [Invalid_argument] unless there is one share vector per CP. *)

val result_of : verifier -> raw_nonzero:int -> result
(** The published estimate: noise-mean subtraction, occupancy-bias
    inversion and the exact interval, plus the proof verdict. *)
