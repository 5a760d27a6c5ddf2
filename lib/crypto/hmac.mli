(** HMAC-SHA256 (RFC 2104): the one HMAC, under PSC item slots and the
    HMAC-DRBG. Keys, messages and MACs at the word level are ints
    holding 32-bit big-endian words, as in {!Sha256}'s word-level
    compressions. MACs allocate nothing beyond {!mac}'s message
    context, and are safe to run concurrently on one key from pool
    workers; {!rekey} is not. *)

type keyed
(** A prepared key: the SHA-256 midstates after its ipad and opad
    blocks, as words. The two key-block compressions are paid once, so
    a one-block message costs two compressions instead of four. *)

val keyed : string -> keyed
(** Keys longer than 64 bytes are hashed first. *)

val rekey : keyed -> int array -> unit
(** [rekey k key] makes [k], in place, the 32-byte key whose 8 words
    are [key] (two compressions, no allocation). For a key owned by one
    caller, such as a DRBG's K. *)

val mac : keyed -> string -> int array -> unit
(** [mac k msg out] stores the 8 words of the MAC of [msg] in [out]. *)

val mac_words : keyed -> int array -> len:int -> int array -> unit
(** [mac_words k msg ~len out] stores in [out] the MAC of the message
    made of the first [len] bytes (0 <= [len] <= 55, one block) of the
    big-endian words of [msg]. Allocates nothing; [out] may be [msg]. *)
