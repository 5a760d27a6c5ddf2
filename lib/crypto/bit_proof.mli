(** Disjunctive Chaum–Pedersen proof that an ElGamal ciphertext
    encrypts a valid bit — either the identity (bit 0) or the canonical
    marker (bit 1) — without revealing which.

    PSC's computation parties attach one of these to every noise slot
    they contribute; otherwise a malicious CP could inject
    Enc(marker^100) slots or other garbage and silently distort the
    cardinality while "noise" deniability protects it. *)

type t

val prove :
  Drbg.t -> pk:Elgamal.pub -> r:Group.exp -> bit:bool -> Elgamal.ciphertext -> t
(** [prove drbg ~pk ~r ~bit ct] where [ct] was produced as
    [Elgamal.encrypt_with ~r pk (if bit then marker else one)]. *)

val verify :
  ?pk_tab:Group.precomp -> pk:Elgamal.pub -> Elgamal.ciphertext -> t -> bool
(** [?pk_tab] is a fixed-base table for [pk]; raises [Invalid_argument]
    on a base mismatch. {!verify_batch} falls back to it to name the
    forged proofs, and tests hold the batch to it (its oracle). *)

val verify_batch :
  ?pk_tab:Group.precomp -> pk:Elgamal.pub ->
  (Elgamal.ciphertext * t) array -> Batch_verify.outcome
(** Batched {!verify} over many proven slots under one key: the four
    group equations per proof fold, under two weight lanes, into two
    random-linear-combination
    multi-exponentiations (~12 multiplications per slot instead of ~8
    full exponentiations); the scalar sub-challenge constraint stays
    exact per proof. A failed fold re-runs the single-proof verifier so
    the outcome names the offending slots. Accepts iff every proof
    verifies individually, up to the ~1/q batch soundness error
    (DESIGN.md §3c). *)

type rand = { r : Group.exp; fake_e : Group.exp; fake_z : Group.exp; k : Group.exp }
(** The four exponents a proven bit encryption consumes. Taking them
    drawn lets callers run a sequential DRBG prepass and do the group
    operations on the domain pool (see [Parallel]). *)

val encrypt_bit_proven_with :
  ?pk_tab:Group.precomp -> pk:Elgamal.pub -> rand -> bool -> Elgamal.ciphertext * t
(** Fresh encryption of a bit under the pre-drawn randomness, together
    with its validity proof. *)

val to_ints : t -> int array
(** Wire encoding for the message bus: both branches' (a1, a2, e, z),
    eight ints total. *)

val of_ints : int array -> t option
(** Checked inverse of {!to_ints}: [None] unless the array has exactly
    eight entries whose element positions are subgroup members. A proof
    rebuilt this way verifies iff the original did. *)
