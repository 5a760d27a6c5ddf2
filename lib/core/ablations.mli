(** Ablations of the methodology's design choices (DESIGN.md §5):
    each returns a report showing what degrades when the piece is
    removed. *)

val collision_correction : ?seed:int -> unit -> Report.t
(** A: PSC occupancy inversion on a ~73%-loaded table vs the raw
    occupied-slot count. *)

val initial_vs_all_streams : ?seed:int -> ?visits:int -> unit -> Report.t
(** C: the §4.1 initial-stream heuristic vs counting every stream. *)

val guard_model_single_vs_dual : unit -> Report.t
(** D: Table 3's dual disjoint relay sets vs a single measurement. *)

val privex_vs_privcount : ?seed:int -> unit -> Report.t
(** F: the predecessor system's Laplace/single-epoch design vs
    PrivCount. *)

val all : unit -> Report.t list
