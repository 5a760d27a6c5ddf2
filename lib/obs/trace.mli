(** Lightweight nested tracing spans: wall clock, Gc allocation delta,
    nesting, and user attributes, buffered in-process for end-of-run
    export. [with_span] reduces to a plain call while telemetry is
    disabled. *)

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

(** {2 Domain-local scopes}

    Recording normally targets the process-global buffer. A pool task
    brackets its work in [scope_begin]/[scope_end] so every span it
    records lands in a buffer local to its domain; the orchestrating
    domain later replays the buffers in task index order with
    [scope_merge], which renumbers ids/parents/depths so the merged
    stream is identical to a sequential run (timing fields aside).
    Callers normally reach this via [Obs.Task], not directly. *)

type scope

val scope_begin : unit -> unit
(** Start buffering this domain's spans into a fresh scope. *)

val scope_end : unit -> scope
(** Stop buffering and detach the scope for a later [scope_merge]. *)

val scope_merge : scope -> unit
(** Replay a scope into the global buffer at the current nesting point
    (anchored under the innermost open span). Orchestrator-side only. *)
