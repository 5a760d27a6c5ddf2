(** Deterministic seeded random number generator used throughout the
    simulator and the measurement protocols. All experiment runs are
    reproducible given a seed. *)

type t

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val split : t -> t
(** [split t] returns a generator statistically independent of [t]'s
    future output (xoshiro256** long-jump). *)

val copy : t -> t

val int64 : t -> int64
(** Uniform over all 2^64 bitpatterns. *)

val below : t -> int -> int
(** [below t n] is uniform on [0, n); [n] must be positive. Unbiased
    (rejection sampling). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive. *)

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

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
