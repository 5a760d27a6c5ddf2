(* Exact network-wide tallies maintained alongside the simulation. The
   whole point of simulating the network is that, unlike on the live
   Tor network, we can compare what the privacy-preserving pipeline
   reports against the truth. *)

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
  unique_domains : (string, unit) Hashtbl.t;       (* initial-stream hostnames *)
  unique_published_onions : (string, unit) Hashtbl.t;
  unique_fetched_onions : (string, unit) Hashtbl.t;
  per_country_connections : (string, int ref) Hashtbl.t;
  per_country_bytes : (string, float ref) Hashtbl.t;
  per_country_circuits : (string, int ref) Hashtbl.t;
}

let create () = {
  connections = 0;
  data_circuits = 0;
  directory_circuits = 0;
  entry_bytes = 0.0;
  streams_total = 0;
  streams_initial = 0;
  initial_hostname = 0;
  initial_ipv4 = 0;
  initial_ipv6 = 0;
  hostname_web = 0;
  hostname_other_port = 0;
  exit_bytes = 0.0;
  descriptor_publishes = 0;
  descriptor_fetches = 0;
  descriptor_fetch_ok = 0;
  descriptor_fetch_failed = 0;
  rend_circuits = 0;
  rend_success = 0;
  rend_closed = 0;
  rend_expired = 0;
  rend_cells = 0;
  unique_client_ips = Hashtbl.create 4096;
  unique_countries = Hashtbl.create 256;
  unique_asns = Hashtbl.create 1024;
  unique_domains = Hashtbl.create 4096;
  unique_published_onions = Hashtbl.create 1024;
  unique_fetched_onions = Hashtbl.create 1024;
  per_country_connections = Hashtbl.create 256;
  per_country_bytes = Hashtbl.create 256;
  per_country_circuits = Hashtbl.create 256;
}

let bump_int tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let bump_float tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl key (ref v)

let mark tbl key = if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key ()

(* Fold [src] into [dst], for the sharded network-day driver: each shard
   simulates a disjoint client slice with its own truth, and the driver
   merges the shard truths in shard order. Per-key updates commute (set
   union; integer sums; one float addition per key per source), so the
   merged truth is independent of table iteration order. *)
let merge_into ~dst src =
  dst.connections <- dst.connections + src.connections;
  dst.data_circuits <- dst.data_circuits + src.data_circuits;
  dst.directory_circuits <- dst.directory_circuits + src.directory_circuits;
  dst.entry_bytes <- dst.entry_bytes +. src.entry_bytes;
  dst.streams_total <- dst.streams_total + src.streams_total;
  dst.streams_initial <- dst.streams_initial + src.streams_initial;
  dst.initial_hostname <- dst.initial_hostname + src.initial_hostname;
  dst.initial_ipv4 <- dst.initial_ipv4 + src.initial_ipv4;
  dst.initial_ipv6 <- dst.initial_ipv6 + src.initial_ipv6;
  dst.hostname_web <- dst.hostname_web + src.hostname_web;
  dst.hostname_other_port <- dst.hostname_other_port + src.hostname_other_port;
  dst.exit_bytes <- dst.exit_bytes +. src.exit_bytes;
  dst.descriptor_publishes <- dst.descriptor_publishes + src.descriptor_publishes;
  dst.descriptor_fetches <- dst.descriptor_fetches + src.descriptor_fetches;
  dst.descriptor_fetch_ok <- dst.descriptor_fetch_ok + src.descriptor_fetch_ok;
  dst.descriptor_fetch_failed <- dst.descriptor_fetch_failed + src.descriptor_fetch_failed;
  dst.rend_circuits <- dst.rend_circuits + src.rend_circuits;
  dst.rend_success <- dst.rend_success + src.rend_success;
  dst.rend_closed <- dst.rend_closed + src.rend_closed;
  dst.rend_expired <- dst.rend_expired + src.rend_expired;
  dst.rend_cells <- dst.rend_cells + src.rend_cells;
  (* table merges: iteration order cannot affect the result — set
     membership is idempotent and the per-key bumps are additive *)
  let union dst_tbl src_tbl =
    (* torlint: allow determinism/hashtbl-order — set union commutes *)
    Hashtbl.iter (fun k () -> mark dst_tbl k) src_tbl
  in
  let merge_counts dst_tbl src_tbl =
    (* torlint: allow determinism/hashtbl-order — per-key addition commutes *)
    Hashtbl.iter
      (fun k r ->
        match Hashtbl.find_opt dst_tbl k with
        | Some acc -> acc := !acc + !r
        | None -> Hashtbl.replace dst_tbl k (ref !r))
      src_tbl
  in
  let merge_floats dst_tbl src_tbl =
    (* torlint: allow determinism/hashtbl-order — disjoint-key float sums
       per key; cross-key order never mixes into one accumulator *)
    Hashtbl.iter (fun k r -> bump_float dst_tbl k !r) src_tbl
  in
  union dst.unique_client_ips src.unique_client_ips;
  union dst.unique_countries src.unique_countries;
  union dst.unique_asns src.unique_asns;
  union dst.unique_domains src.unique_domains;
  union dst.unique_published_onions src.unique_published_onions;
  union dst.unique_fetched_onions src.unique_fetched_onions;
  merge_counts dst.per_country_connections src.per_country_connections;
  merge_floats dst.per_country_bytes src.per_country_bytes;
  merge_counts dst.per_country_circuits src.per_country_circuits

let unique_clients t = Hashtbl.length t.unique_client_ips
let unique_published_onions t = Hashtbl.length t.unique_published_onions
let unique_fetched_onions t = Hashtbl.length t.unique_fetched_onions
