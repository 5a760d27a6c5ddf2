(** The consensus view of the simulated network: the relay list plus the
    weighted samplers clients use for path selection, and the weight
    fractions needed to extrapolate observations (paper §3.3). *)

type t

val create : Relay.t array -> t

val relays : t -> Relay.t array
val size : t -> int
val relay : t -> Relay.id -> Relay.t

val sample_guard : t -> Prng.Rng.t -> Relay.id
val sample_exit : t -> Prng.Rng.t -> Relay.id
val sample_rendezvous : t -> Prng.Rng.t -> Relay.id
(** Rendezvous points are selected like middles. *)

val guard_ids : t -> Relay.id array
val hsdir_ids : t -> Relay.id array

val guard_fraction : t -> Relay.id list -> float
(** Fraction of total guard weight held by the given relays. *)

val exit_fraction : t -> Relay.id list -> float
val middle_fraction : t -> Relay.id list -> float

val pick_observers_by_weight :
  t -> Prng.Rng.t -> role:[ `Guard | `Exit | `Middle ] -> target_fraction:float ->
  Relay.id list
(** Greedily select relays of the given role until their combined weight
    fraction reaches [target_fraction] — how we "run 16 relays" at a
    chosen share of the network. *)

val total_guard_weight : t -> float
