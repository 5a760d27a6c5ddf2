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
    on a base mismatch. *)

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

val encrypt_bit_proven :
  Drbg.t -> pk:Elgamal.pub -> bool -> Elgamal.ciphertext * t
(** Fresh encryption of a bit together with its validity proof. *)

type rand = { r : Group.exp; fake_e : Group.exp; fake_z : Group.exp; k : Group.exp }
(** The four exponents a proven bit encryption consumes, in the order
    {!encrypt_bit_proven} draws them. Splitting the draw from the
    arithmetic lets callers run a sequential DRBG prepass and do the
    group operations on the domain pool (see [Parallel]). *)

val draw_rand : Drbg.t -> rand
(** Draw the randomness for one proven bit encryption. Consumes exactly
    the DRBG values [encrypt_bit_proven] would, in the same order. *)

val encrypt_bit_proven_with :
  ?pk_tab:Group.precomp -> pk:Elgamal.pub -> rand -> bool -> Elgamal.ciphertext * t
(** Pure arithmetic of {!encrypt_bit_proven} given pre-drawn
    randomness: [encrypt_bit_proven drbg ~pk bit] is exactly
    [encrypt_bit_proven_with ~pk (draw_rand drbg) bit]. *)

val to_ints : t -> int array
(** Wire encoding for the message bus: both branches' (a1, a2, e, z),
    eight ints total. *)

val of_ints : int array -> t option
(** Checked inverse of {!to_ints}: [None] unless the array has exactly
    eight entries whose element positions are subgroup members. A proof
    rebuilt this way verifies iff the original did. *)
