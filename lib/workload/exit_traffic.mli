(** Exit-side workload (§4): website visits whose first stream carries
    the user-intended destination; embedded resources follow as
    subsequent streams on the same circuit (~5% of streams are
    initial). *)

type config = {
  popularity : Popularity.config;
  subsequent_mean : float;
  bytes_per_visit_mean : float;
  third_party_prob : float;
      (** chance an embedded-resource stream targets a third-party
          CDN/ad host — why the paper counts only initial streams *)
}

val default : config

val run :
  ?config:config -> Torsim.Engine.t -> Population.t -> Prng.Rng.t -> visits:int -> unit
(** Drive [visits] website visits round-robin over the population. *)
