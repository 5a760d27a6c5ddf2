(** (ε, δ)-differential privacy mechanisms.

    PrivCount publishes each counter with additive Gaussian noise whose
    standard deviation is calibrated from the counter's sensitivity
    (derived from the action bounds) and the privacy parameters. PSC's
    noise is binomial, added as random encrypted bits by the computation
    parties. *)

type params = { epsilon : float; delta : float }

val paper_params : params
(** ε = 0.3, δ = 1e-11, as used in the paper (§3.2). *)

val gaussian_sigma : params -> sensitivity:float -> float
(** σ = Δ·sqrt(2 ln(1.25/δ)) / ε — the classic Gaussian-mechanism
    calibration (Dwork & Roth, Thm A.1). *)

val gaussian_noise : Prng.Rng.t -> sigma:float -> float
(** A zero-mean Gaussian draw with the given σ. *)

val binomial_n_for : params -> sensitivity:float -> int
(** Number of coin flips per computation party needed so that the
    binomial mechanism is (ε,δ)-DP for the given sensitivity
    (Dwork et al. 2006 "Our Data, Ourselves" calibration:
    n ≥ 64 Δ² ln(2/δ) / ε²). *)

val laplace_scale : epsilon:float -> sensitivity:float -> float
(** b = Δ/ε for the pure-ε Laplace mechanism. *)

val laplace_noise : Prng.Rng.t -> scale:float -> float
