(** Onion-service workload (§6): descriptor publishes and fetches (with
    the ~91% failure traffic from botnets and stale scanners), and
    rendezvous circuits with the paper's outcome mix. *)

type config = {
  services : int;
  public_fraction : float;
  publishes_per_service : float;
  fetched_fraction : float;
  fetch_fail_rate : float;
  malformed_share_of_failures : float;
  total_fetches : int;
  success_zipf : float;
  bogus_zipf : float;
  rend_total : int;
  rend_success : float;   (** per-circuit success share (8.08%) *)
  rend_closed : float;
  cells_per_active_mean : float;
}

val default : config

val setup_services : config -> Torsim.Engine.t -> Prng.Rng.t -> Torsim.Onion.service list

val run_rendezvous : config -> Torsim.Engine.t -> Prng.Rng.t -> unit
(** Successful rendezvous arrive as circuit pairs; the per-attempt
    success probability is derived so the per-circuit share matches
    [rend_success]. *)

val run : ?config:config -> Torsim.Engine.t -> Prng.Rng.t -> unit
(** Services + publishes + fetches + rendezvous, in order. *)
