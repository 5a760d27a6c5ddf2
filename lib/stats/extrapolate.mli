(** Inferring network-wide totals from partial observation (paper §3.3). *)

val count : fraction:float -> float -> float
(** Divide a measured count by the observed weight fraction. *)

val count_ci : fraction:float -> Ci.t -> Ci.t

val unique_range : fraction:float -> float -> Ci.t
(** The conservative [x, x/p] range for unique counts with no usable
    frequency model. *)

val unique_range_ci : fraction:float -> Ci.t -> Ci.t
