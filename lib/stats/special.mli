(** Special functions needed by the confidence-interval machinery. *)

val erfc : float -> float
(** Complementary error function, 1 - erf x; absolute error ~1e-13
    (Chebyshev fit). *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
(** Φ((x-mu)/sigma). *)

val normal_ppf : float -> float
(** Inverse standard normal CDF (Acklam's algorithm + Halley
    refinement); accurate to ~1e-13 on (0,1). *)

val z_for_confidence : float -> float
(** [z_for_confidence 0.95] = 1.959963... *)
