(** The one binary codec, for the bus wire and the event trace alike:
    unsigned LEB128 varints, zigzag-encoded signed ints,
    length-prefixed byte strings and IEEE floats as raw Int64 bits
    (exact round-trip, no decimal detour). Bus envelopes, the
    per-protocol wire bodies, checkpoints, and Evtrace segment headers
    and record payloads are all written by {!W} and read by {!R}.

    The readers are on the trace replay hot path, so they allocate
    nothing: the varint loop is a top-level function taking the reader
    (this compiler has no flambda, so a local [let rec] capturing the
    reader would be a closure allocated per call), and the small
    readers are marked [@inline].

    Decoding never raises across the API boundary: readers run inside
    {!decode}, which converts truncation and malformed input into the
    typed {!error} below. Writers cannot fail. *)

type error =
  | Truncated  (** input ended mid-field *)
  | Bad_magic  (** leading magic bytes do not match *)
  | Unsupported_version of int
  | Trailing of int  (** well-formed value followed by N unconsumed bytes *)
  | Invalid of string  (** structurally impossible field, message says which *)

val error_to_string : error -> string

(** {2 Writing} *)

module W : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; the int must be non-negative. *)

  val zint : t -> int -> unit
  (** Zigzag-mapped signed varint; any int, [min_int] and [max_int]
      included (nine bytes at most). *)

  val f64 : t -> float -> unit
  val bytes : t -> string -> unit
  (** Varint length prefix, then the raw bytes. *)

  val magic : t -> string -> unit
  (** Raw bytes, no length prefix (fixed-size header field). *)

  val contents : t -> string
end

(** {2 Reading} *)

module R : sig
  type t

  val u8 : t -> int
  val varint : t -> int
  val zint : t -> int
  val f64 : t -> float

  type f64_cell = { mutable value : float }
  (** Float-only, so a stored float is unboxed. *)

  val f64_into : t -> f64_cell -> unit
  (** {!f64} into a cell: no boxed float even where the call is not
      inlined, as under the [-opaque] of dev builds. *)

  val bytes : t -> string
  val magic : t -> string -> unit
  (** Consume and compare a fixed header; mismatch fails the decode
      with [Bad_magic]. *)

  val fail : string -> 'a
  (** Abort the surrounding {!decode} with [Invalid msg]. *)

  val fail_version : int -> 'a
  (** Abort with [Unsupported_version v]. *)

  val remaining : t -> int

  val count : ?width:int -> t -> int
  (** An element count, read before the caller allocates for it. Each
      element takes at least [width] bytes (default 1: one varint), so
      a count above [remaining / width] can only come from a truncated
      input and fails with [Truncated]. What a decoder allocates from a
      count is thus bounded by its input's size, whatever a hostile
      length prefix claims. A negative count is [Invalid]. *)
end

val decode : string -> (R.t -> 'a) -> ('a, error) result
(** Run a reader over the whole input. Truncation, magic mismatch and
    [R.fail] become typed errors; unconsumed bytes after a successful
    read become [Trailing n]. Any other exception escapes (readers are
    expected to signal malformed input only through [R.fail]). *)
