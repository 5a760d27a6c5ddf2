(** Append-only run ledger, the one telemetry record of a run: typed
    audit events — privacy-budget grants and draws with running
    cumulative spend, proof verification outcomes, the tree of timed
    phases, and free-form notes. Recording is a no-op while telemetry
    is disabled. Record only from the orchestrating domain, never from
    a pool worker; an enabled run's ledger is then identical at any
    pool size (timings and the [jobs] attr aside).

    Everything recorded here must already be publishable (mechanism
    parameters, proof verdicts, timings): torlint treats this module as
    a privacy-flow sink, so pre-noise counter residues can never reach
    it. *)

type event =
  | Grant of { system : string; epsilon : float; delta : float }
      (** a system's total (eps, delta) budget, promised up front *)
  | Draw of {
      system : string;
      counter : string;
      mechanism : string;
      epsilon : float;
      delta : float;
      cum_epsilon : float;  (** running spend for [system], this draw included *)
      cum_delta : float;
    }
  | Proof of { kind : string; party : int; ok : bool; batch : int }
      (** one verification outcome, e.g. a CP's shuffle proof over [batch] slots *)
  | Phase of {
      id : int;  (** assigned at entry, from 1 after {!reset} *)
      parent : int option;  (** the enclosing phase, [None] at the root *)
      name : string;
      attrs : (string * string) list;
          (** as given to {!phase}, plus ["error"] when the thunk raised *)
      wall_s : float;
      alloc_bytes : float;  (** Gc.allocated_bytes delta, children included *)
    }
      (** one closed phase; events come in completion order, so a
          phase follows its children *)
  | Note of { key : string; value : string }

(** {2 Recording} *)

val grant : system:string -> epsilon:float -> delta:float -> unit

val draw : system:string -> counter:string -> mechanism:string -> epsilon:float -> delta:float -> unit
(** Record a budget draw; the cumulative fields are filled in from the
    ledger's running per-system totals. *)

val proof : kind:string -> party:int -> ok:bool -> batch:int -> unit
val note : key:string -> value:string -> unit

val phase : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a phase nested in the innermost open one, and
    append its [Phase] event when it closes. When the thunk raises, the
    event is still appended, with an ["error"] attr carrying the
    exception, phases the exception unwound through are closed, and the
    exception is re-raised with its backtrace. Reduces to a plain call
    while disabled. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val reset : unit -> unit

(** {2 Export / import} *)

val to_jsonl : ?timings:bool -> event list -> string
(** One JSON object per line. [~timings:false] zeroes the [wall_s] and
    [alloc_bytes] fields of [Phase] events and drops their ["jobs"]
    attr, the only other field that depends on the pool size — the
    canonical form used to compare ledgers across pool sizes. Floats are printed shortest
    round-trip, so {!of_jsonl} reconstructs every field exactly. *)

val of_jsonl : string -> (event list, string) result
(** Parse [to_jsonl] output (blank lines are skipped); the error
    message names the first offending line and field. A phase line
    without [id], [parent] or [attrs] is an error. *)

type phase_total = { count : int; wall_s : float; alloc_bytes : float }

val phase_totals : event list -> (string * phase_total) list
(** [Phase] events summed per name (wall seconds, allocated bytes,
    occurrences), names in first-appearance order. *)

val summary : event list -> string
(** Human-readable tables: budget spend per system, proof outcomes per
    kind, phase timings, notes. *)

(** {2 Audit} *)

type audit = {
  ok : bool;                (** no violations *)
  violations : string list; (** human-readable, in detection order *)
  proofs_checked : int;
  proofs_failed : int;
  grants : (string * (float * float)) list;  (** per system (eps, delta), name-sorted *)
  spends : (string * (float * float)) list;
}

val audit : event list -> audit
(** Replay a ledger: every [Proof] must verify, each [Draw]'s recorded
    cumulative spend must match independent re-summation, and no
    system's total spend may exceed its [Grant]s (systems that drew
    without a grant are reported but unbounded). Comparisons are
    relative to 1e-9, so float re-summation order cannot trip it while
    delta-magnitude (1e-11) discrepancies still do. *)
