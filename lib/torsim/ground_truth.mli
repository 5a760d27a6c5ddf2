(** Exact network-wide tallies maintained alongside the simulation —
    the point of simulating: the privacy-preserving pipeline's outputs
    can be compared against the truth, which the live-network study
    never could. Not visible to any protocol party. *)

type t = {
  mutable connections : int;
  mutable data_circuits : int;
  mutable directory_circuits : int;
  mutable entry_bytes : float;
  mutable streams_total : int;
  mutable streams_initial : int;
  mutable initial_hostname : int;
  mutable initial_ipv4 : int;
  mutable initial_ipv6 : int;
  mutable hostname_web : int;
  mutable hostname_other_port : int;
  mutable exit_bytes : float;
  mutable descriptor_publishes : int;
  mutable descriptor_fetches : int;
  mutable descriptor_fetch_ok : int;
  mutable descriptor_fetch_failed : int;
  mutable rend_circuits : int;
  mutable rend_success : int;
  mutable rend_closed : int;
  mutable rend_expired : int;
  mutable rend_cells : int;
  unique_client_ips : (int, unit) Hashtbl.t;
  unique_countries : (string, unit) Hashtbl.t;
  unique_asns : (int, unit) Hashtbl.t;
  unique_domains : (string, unit) Hashtbl.t;
  unique_published_onions : (string, unit) Hashtbl.t;
  unique_fetched_onions : (string, unit) Hashtbl.t;
  per_country_connections : (string, int ref) Hashtbl.t;
  per_country_bytes : (string, float ref) Hashtbl.t;
  per_country_circuits : (string, int ref) Hashtbl.t;
}

val create : unit -> t

val merge_into : dst:t -> t -> unit
(** Fold a shard's truth into [dst] (set union for uniques, sums for
    tallies). Used by the sharded network-day driver, which merges
    shard truths in shard order. *)

val bump_int : ('a, int ref) Hashtbl.t -> 'a -> unit
val bump_float : ('a, float ref) Hashtbl.t -> 'a -> float -> unit
val mark : ('a, unit) Hashtbl.t -> 'a -> unit

val unique_clients : t -> int
val unique_published_onions : t -> int
val unique_fetched_onions : t -> int
