(** SHA-256 (FIPS 180-4), implemented from scratch: the project takes
    no OCaml crypto dependency. Under every Fiat–Shamir challenge,
    shuffle round digest and batch-verification weight seed (all
    streamed through {!Transcript}), the batch weights themselves
    (counter mode), HMAC (PSC item slots, HMAC-DRBG), Evtrace segment
    checksums, [Bus.Sched.order_digest], the deploy
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

(** {2 Word-level compressions}

    For callers that lay out a block's message words themselves (the
    HMAC-DRBG generate and update steps, batch weights) and leave the
    padding to {!pad_words}: hash words and block words are ints
    holding 32-bit values, big-endian as in FIPS 180-4. The byte path
    above runs the same compression kernel. *)

val set_iv : int array -> unit
(** [set_iv h] sets the 8 words of [h] to the SHA-256 initial value. *)

val load_words : string -> int array -> int -> unit
(** [load_words s dst at] stores the 8 big-endian words of the first 32
    bytes of [s] (a digest) in [dst.(at)] .. [dst.(at + 7)]. *)

val compress_words : int array -> int array -> unit
(** [compress_words h m] absorbs the 16-word block [m] into the 8 hash
    words [h], in place. Allocates nothing. *)

val pad_words : int array -> len:int -> total:int -> unit
(** [pad_words m ~len ~total] pads the last 16-word block [m] of a
    message, whose first [len] bytes (0 <= [len] <= 55) the caller has
    laid out in [m]'s leading words: the 0x80 marker after them, zeros,
    and the bit length of the whole message, [total] bytes counting
    every block compressed before this one. Allocates nothing. *)

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val hex : string -> string
(** One-shot digest as a lowercase hex string. *)

val to_hex : string -> string
(** Hex-encode arbitrary bytes. *)
