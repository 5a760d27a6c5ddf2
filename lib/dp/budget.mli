(** Privacy-budget allocation across the counters of a measurement
    round, and sequential composition across rounds. *)

type allocation = { per_counter : Mechanism.params; counters : int }

val split : Mechanism.params -> counters:int -> allocation
(** Divide ε and δ evenly (PrivCount's default policy). *)

val compose : Mechanism.params list -> Mechanism.params
(** Basic sequential composition: sum of the ε's and δ's. *)
