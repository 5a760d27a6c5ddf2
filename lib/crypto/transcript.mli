(** Streaming Fiat–Shamir transcript: one {!Sha256} context absorbs a
    proof's fields in order, so no transcript string is built. Strings
    go in as their bytes; elements and exponents as four big-endian
    bytes ({!Sha256.update_int32_be}). A transcript hashes
    exactly the concatenation of its fields; every challenge and
    batch-weight seed hashes through one (DESIGN.md §3c). Fields take
    the transcript last and return it, for pipelines:
    [Transcript.(create "dleq|" |> string context |> elt a1 |> challenge)]. *)

type t

val create : string -> t
(** A transcript that has absorbed [tag] ([""] for none). *)

val string : string -> t -> t
val elt : Group.elt -> t -> t
val exp : Group.exp -> t -> t
val elts : Group.elt array -> t -> t
val exps : Group.exp array -> t -> t
val ciphertexts : Elgamal.ciphertext array -> t -> t
(** Each ciphertext as [c1] then [c2]. *)

val digest : t -> string
(** The 32-byte digest; the transcript is spent (as by {!challenge}). *)

val challenge : t -> Group.exp
(** [Group.exp_of_digest (digest t)]. *)
