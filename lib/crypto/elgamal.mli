(** Exponential ElGamal over {!Group}: rerandomizable, multiplicatively
    homomorphic ciphertexts. PSC stores each oblivious counter bit as an
    encryption of either the identity (bit 0) or a non-identity element
    (bit 1) under the joint key of all computation parties. *)

type pub = Group.elt
type priv = Group.exp

type ciphertext = { c1 : Group.elt; c2 : Group.elt }

val keygen : Drbg.t -> priv * pub

val joint_pub : pub list -> pub
(** Product of the parties' public keys: the joint key whose private key
    is the (never-materialized) sum of the parties' private keys. *)

val encrypt : ?tab:Group.precomp -> Drbg.t -> pub -> Group.elt -> ciphertext
(** [?tab], here and below, is a fixed-base table for the public key
    (see {!Group.precomp}); passing a table built for a different base
    raises [Invalid_argument]. *)

val encrypt_with : ?tab:Group.precomp -> r:Group.exp -> pub -> Group.elt -> ciphertext
(** Encryption with explicit randomness (used by proofs and tests). *)

val mul : ciphertext -> ciphertext -> ciphertext
(** Homomorphic: Enc(m1) * Enc(m2) = Enc(m1 * m2). *)

val combine_partial_arr : ciphertext -> Group.elt array -> Group.elt
(** [combine_partial_arr ct shares] removes every party's decryption
    share [c1^x_p] from [c2], recovering the plaintext of one
    ciphertext: the one-lane oracle that tests hold
    {!combine_partial_all} to. *)

val combine_partial_all :
  ciphertext array -> parties:int -> share:(int -> int -> Group.elt) -> Group.elt array
(** Vectorised combine: plaintext of [cts.(i)] given that party [p]'s
    share for it is [share p i]. One batch inversion for the whole
    vector instead of one modular inversion per ciphertext; the share
    products run on the domain pool. *)

val is_identity_plaintext : Group.elt -> bool

val one : Group.elt
(** Plaintext encoding of bit 0 (group identity). *)

val marker : Group.elt
(** Canonical non-identity plaintext encoding bit 1 before blinding. *)
