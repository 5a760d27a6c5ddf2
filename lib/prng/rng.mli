(** Deterministic seeded random number generator used throughout the
    simulator and the measurement protocols. All experiment runs are
    reproducible given a seed. *)

type t

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val below : t -> int -> int
(** [below t n] is uniform on [0, n); [n] must be positive. Unbiased
    (rejection sampling). *)

val float : t -> float
(** Uniform on [0, 1). *)

val float_pos : t -> float
(** Uniform on (0, 1]; safe as a log argument. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of 0..n-1. *)
