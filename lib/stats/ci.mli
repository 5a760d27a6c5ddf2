(** Confidence intervals for the two noise regimes of the study:
    Gaussian-noised PrivCount counts, and binomially-noised PSC unique
    counts further biased low by hash-table collisions. *)

type t = { lo : float; hi : float }

val make : float -> float -> t
val width : t -> float
val contains : t -> float -> bool
val midpoint : t -> float
val intersect : t -> t -> t option
val union : t -> t -> t
val scale : t -> float -> t
(** Multiply both endpoints (extrapolation by 1/p). *)

val normal : ?confidence:float -> value:float -> sigma:float -> unit -> t
(** CI for an observation [value] = truth + N(0, sigma²): the standard
    ±z·σ interval (95% by default), clamped is NOT applied — counts can
    be legitimately negative after noising (paper §4.2). *)

val binomial_exact :
  ?confidence:float -> observed:int -> flips:int -> table_size:int -> unit -> t
(** The PSC interval (paper §3.3): the reported value is
    [observed] = collide(true_count) + Binomial(flips, 1/2) − flips/2,
    where collide(k) is the expected number of occupied cells when k
    distinct items hash into [table_size] cells. Inverts the likelihood
    over the true count with an exact dynamic-programming / search
    procedure and returns the 95% region. *)

val expected_occupied : table_size:int -> int -> float
(** E[occupied cells] after k distinct balls into [table_size] bins:
    m(1 - (1-1/m)^k). The forward model that tests check the live
    {!invert_occupancy} against. *)

val invert_occupancy : table_size:int -> float -> float
(** Inverse of {!expected_occupied} in k (collision-bias correction). *)
