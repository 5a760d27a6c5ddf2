(** Relays of the simulated consensus. Bandwidth plays the role of
    Tor's consensus weight. *)

type id = int

type flags = { guard : bool; exit : bool; hsdir : bool }

type t = {
  id : id;
  nickname : string;
  bandwidth : float;
  flags : flags;
}

val make :
  id:id -> nickname:string -> bandwidth:float -> guard:bool -> exit:bool -> hsdir:bool -> t
(** Raises on non-positive bandwidth. *)

(** Position weight: the fraction of a guard's bandwidth used in the
    guard position (Tor's Wgg); the rest serves middle duty. *)
val wgg : float

(** Weight in the guard position: bandwidth * wgg for guard-flagged
    non-exits, 0 otherwise (exit bandwidth is reserved for exiting). *)
val guard_weight : t -> float

val exit_weight : t -> float

(** Weight in the middle position: non-exits serve as middles; guards
    contribute their non-guard share (1 - wgg). *)
val middle_weight : t -> float
val is_hsdir : t -> bool
