(** Measurement-schedule privacy accountant, enforcing the paper's
    deployment rules (§3.1): no overlapping measurements, and at least
    [min_gap_hours] between measurements of distinct statistics, so
    each 24-hour adjacency window carries at most one publication. *)

type system = PrivCount | PSC

type t

exception Schedule_violation of string

val create : ?min_gap_hours:int -> unit -> t

val register :
  t -> start_hour:int -> duration_hours:int -> system:system -> statistic:string ->
  params:Mechanism.params -> unit
(** Raises {!Schedule_violation} if the measurement overlaps another or
    violates the gap rule for a distinct statistic. *)

val total_spend : t -> Mechanism.params
(** Composition over the whole campaign. *)

val window_spend : t -> window_start:int -> Mechanism.params
(** Privacy cost intersecting one 24-hour adjacency window. *)
