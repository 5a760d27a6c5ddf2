(** Sample statistics used by the Monte-Carlo extrapolations. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased (n-1) sample variance; requires >= 2 samples. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** Linear interpolation between closest ranks; q in [0, 1]. *)

val empirical_ci : ?confidence:float -> float array -> Ci.t
(** Central empirical interval (95% by default). *)
