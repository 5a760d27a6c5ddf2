(** HMAC-SHA256 (RFC 2104). *)

type keyed
(** Precomputed key state: the SHA-256 midstates after the ipad/opad key
    blocks. A [keyed] halves the per-message compression count, which
    matters for HMAC-DRBG where each key serves several calls. *)

val keyed : string -> keyed

val sha256_keyed : keyed -> string -> string
(** [sha256_keyed (keyed key) msg] is the 32-byte raw MAC of [msg]
    under [key]. *)
