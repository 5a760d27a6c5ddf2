(** SHA-256 (FIPS 180-4), implemented from scratch: the project takes
    no OCaml crypto dependency. Under every Fiat–Shamir challenge,
    shuffle round digest and batch-verification weight seed (all
    streamed through {!Transcript}), HMAC (PSC item slots, HMAC-DRBG),
    Evtrace segment checksums, [Bus.Sched.order_digest], the deploy
    digest and the simulated onion/HSDir addresses. Compressions and
    {!update_int32_be} allocate nothing, and are safe to run
    concurrently from pool workers (DESIGN.md §3c). *)

type ctx

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot: updating or finalizing the copy leaves the
    original untouched. Used by HMAC to cache per-key midstates. *)

val update : ctx -> string -> unit

val update_int32_be : ctx -> int -> unit
(** Absorb the low 32 bits of an int as four big-endian bytes, without
    building a string. *)

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val hex : string -> string
(** One-shot digest as a lowercase hex string. *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes. *)
