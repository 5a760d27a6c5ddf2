(** Sample statistics used by the Monte-Carlo extrapolations. *)

val quantile : float array -> float -> float
(** Linear interpolation between closest ranks; q in [0, 1]. *)

val empirical_ci : ?confidence:float -> float array -> Ci.t
(** Central empirical interval (95% by default). *)
