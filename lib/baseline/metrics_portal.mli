(** The Tor Metrics Portal user estimator (Loesing et al. 2010): count
    directory requests at the reporting subset of mirrors, divide by
    their capacity fraction and by an assumed requests-per-user-per-day.
    This is the heuristic baseline whose ~4x underestimate the paper's
    direct measurements expose (§5.1). *)

type config = {
  assumed_requests_per_user_per_day : float;
  reporting_fraction : float;
}

type t

val create : ?config:config -> unit -> t

val attach : t -> Torsim.Engine.t -> Prng.Rng.t -> unit
(** Subscribe the estimator's statistics reporting at a random
    [reporting_fraction] of guard relays. *)

val estimated_daily_users : t -> Torsim.Engine.t -> float
