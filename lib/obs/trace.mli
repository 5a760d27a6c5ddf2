(** Lightweight nested tracing spans: wall clock, Gc allocation delta,
    nesting, and user attributes, buffered in-process for end-of-run
    export. [with_span] reduces to a plain call while telemetry is
    disabled. Open spans only on the orchestrating domain, never in a
    pool worker. *)

type span = {
  id : int;
  parent : int option;  (** enclosing span, [None] for roots *)
  depth : int;          (** 0 = root *)
  name : string;
  attrs : (string * string) list;
  start_s : float;      (** Unix epoch seconds at entry *)
  duration_s : float;
  alloc_bytes : float;  (** Gc.allocated_bytes delta, children included *)
}

val with_span :
  ?attrs:(string * string) list -> ?on_close:(span -> unit) -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. The span is recorded even when the
    thunk raises: frames the exception unwound through are discarded, an
    ["error"] attribute carrying the exception is attached, and the
    exception is re-raised with its backtrace — the surrounding nesting
    state is exactly as if the thunk had returned. [on_close] receives
    the closed span, also when the thunk raises and when the buffer is
    full and the span itself is dropped; this is how {!Ledger.phase}
    derives its [Phase] event. *)

val now : unit -> float
(** [Unix.gettimeofday], re-exported so callers that print their own
    timings need no direct unix dependency. *)

val spans : unit -> span list
(** Finished spans in completion order. *)

val dropped : unit -> int
(** Spans discarded because the buffer hit its capacity. *)

val set_capacity : int -> unit
(** Cap the span buffer (default 100_000); excess spans are counted in
    [dropped] rather than kept. The tests' hook into the full-buffer
    path. *)

val reset : unit -> unit
