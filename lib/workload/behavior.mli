(** Per-client daily behaviour for the client-side measurements
    (Tables 4 & 5, Fig. 4), with per-country modifiers (§5.2). *)

type profile = {
  connections_mean : float;
  data_circuits_mean : float;
  dir_circuits_mean : float;
  bytes_mean : float;
}

val run_population_day : ?profile:profile -> Torsim.Engine.t -> Population.t -> Prng.Rng.t -> unit
