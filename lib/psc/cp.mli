(** A PSC computation party: holds one share of the joint key; appends
    encrypted binomial noise, shuffles with a verifiable-shuffle proof,
    rerandomizes the encrypted bits, and contributes verifiable partial
    decryptions. *)

type t

val create : id:int -> seed:int -> t
val public_key : t -> Crypto.Elgamal.pub
val id : t -> int

val key_proof : t -> Crypto.Sigma.schnorr_proof
val verify_key_proof : id:int -> pub:Crypto.Elgamal.pub -> Crypto.Sigma.schnorr_proof -> bool

val noise_slots :
  ?tab:Crypto.Group.precomp ->
  t -> joint:Crypto.Elgamal.pub -> flips:int ->
  (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array
(** [flips] fair coins, each encrypted as its own slot with a
    disjunctive bit-validity proof. [?tab] is a fixed-base table for
    [joint]. *)

val shuffle :
  ?tab:Crypto.Group.precomp ->
  t -> joint:Crypto.Elgamal.pub -> Crypto.Elgamal.ciphertext array ->
  Crypto.Elgamal.ciphertext array * Crypto.Shuffle.proof
(** {!Crypto.Shuffle.shuffle} from the CP's DRBG stream. [?tab] is a
    fixed-base table for [joint], reused across phases. *)

val rerandomize_bits : t -> Crypto.Elgamal.ciphertext array -> Crypto.Elgamal.ciphertext array
(** x -> x^k for secret nonzero k per slot: bit 0 stays bit 0, anything
    else becomes a random non-identity element. *)

type decryption_share = {
  cp_id : int;
  shares : Crypto.Group.elt array;  (** [c1_i^x] per slot *)
  proof : Crypto.Sigma.dleq_proof option;
      (** one Chaum–Pedersen proof for the whole vector; [None] only
          when a share arrives over the wire without one *)
}

val decrypt_shares : t -> Crypto.Elgamal.ciphertext array -> decryption_share
(** Partial decryptions of every slot and one folded Chaum–Pedersen
    proof: weights drawn from a transcript over the CP's key, every
    [c1_i] and every share fold the vector into one statement
    [(C, C^x)] with [C = prod c1_i^w_i], proven equal-log to
    [(g, pk)] with a single nonce from the CP's DRBG (DESIGN.md §3c). *)

val verify_decryption :
  pub:Crypto.Elgamal.pub -> vector:Crypto.Elgamal.ciphertext array -> decryption_share -> bool
(** Recompute the weights and [C], fold the shares into
    [prod share_i^w_i] and check the one proof: [false] on a missing
    proof, a share vector of the wrong length, or any share other than
    [c1_i^x] (up to the 1/q fold error). Shares must be subgroup
    members, which {!Crypto.Group.elt} guarantees. *)
