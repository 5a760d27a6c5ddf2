(** Multi-day client churn (§5.1): each day a fraction of the
    population departs and is replaced by clients on fresh IPs, so the
    4-day unique-IP count grows to about twice the 1-day count. *)

type config = {
  base : Population.config;
  daily_turnover : float;
}

val default : config
(** 38% daily turnover — calibrated so unique IPs roughly double over
    4 days, as measured in the paper. *)

type t

val create : ?config:config -> Torsim.Consensus.t -> Prng.Rng.t -> t
val population : t -> Population.t

val next_day : t -> Prng.Rng.t -> unit
(** Replace a [daily_turnover] fraction of clients with fresh-IP
    clients (fresh guard choices too). *)
