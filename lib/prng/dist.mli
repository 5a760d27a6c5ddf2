(** Random variate generation for the distributions used by the noise
    mechanisms (normal, binomial) and the synthetic workloads (zipf,
    poisson, exponential, geometric). *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian variate (Marsaglia polar method). *)

val exponential : Rng.t -> rate:float -> float
(** Exponential variate with rate [rate] > 0. *)

val poisson : Rng.t -> lambda:float -> int
(** Poisson variate; exact (Knuth) for small lambda, normal
    approximation with continuity correction for large lambda. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** Binomial(n, p) variate; exact for small n, normal approximation
    (clamped to [0, n]) for large n. *)

val geometric : Rng.t -> p:float -> int
(** Number of failures before the first success, support {0,1,...}. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** Zipf variate on {1..n} with exponent [s] > 0, by rejection-inversion
    (W. Hörmann, G. Derflinger). Heavy-tail model for domain popularity. *)

val log_factorial : int -> float
(** ln(n!), via Stirling series for large n; used by exact CI code. *)

val log_choose : int -> int -> float
(** ln(n choose k). *)
