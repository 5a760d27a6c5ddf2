(** Process-wide metrics registry: monotonic counters and gauges. Wall
    time is not a metric; spans and ledger phases carry it. Every
    operation is a no-op while telemetry is disabled (see {!Control}),
    and a disabled run leaves the registry empty. Record only from the
    orchestrating domain, never from a pool worker. *)

val labeled : string -> (string * string) list -> string
(** [labeled "x_total" [("kind","data")]] is [{x_total{kind="data"}}],
    the Prometheus label form; values are escaped. *)

val inc : ?by:int -> string -> unit
(** Bump a monotonic counter (creates it on first use). Raises
    [Invalid_argument] on negative [by] or a name already used by a
    different metric type. *)

val inc_float : string -> float -> unit
(** Counter bump with a float amount (e.g. bytes, epsilon). *)

val set : string -> float -> unit
(** Set a gauge. *)

(** {2 Read side} *)

type reading = Counter_sample of float | Gauge_sample of float

type sample = { name : string; value : reading }

val snapshot : unit -> sample list
(** Every registered metric, sorted by name (deterministic). *)

val counter_value : string -> float option

val reset : unit -> unit
