(* Multi-day client churn (§5.1 "Client churn"): each day a fraction of
   the client population departs and is replaced by clients on fresh
   IPs, so the set of unique IPs seen over d days grows well beyond the
   one-day count. The paper measured 672,303 unique IPs over 4 days vs
   313,213 over one day — IPs turn over almost twice in four days. *)

type config = {
  base : Population.config;
  daily_turnover : float;  (* fraction of the population replaced each day *)
}

let default = { base = Population.default; daily_turnover = 0.38 }

type t = {
  config : config;
  consensus : Torsim.Consensus.t;
  mutable population : Population.t;
  mutable next_ip : int;
}

let create ?(config = default) consensus rng =
  let population = Population.build ~config:config.base consensus rng in
  { config; consensus; population; next_ip = Population.last_ip population }

let population t = t.population

(* Advance to the next day: replace a [daily_turnover] fraction of
   clients with fresh-IP clients (rebuilding guard choices too — a new
   IP usually means a new device/network, and Tor may re-pick directory
   guards). *)
let next_day t rng =
  let clients = Array.copy (Population.clients t.population) in
  let n = Array.length clients in
  let replaced = int_of_float (t.config.daily_turnover *. float_of_int n) in
  let order = Prng.Rng.permutation rng n in
  for i = 0 to replaced - 1 do
    let idx = order.(i) in
    let old = clients.(idx) in
    t.next_ip <- t.next_ip + 1;
    let fresh =
      match old.Torsim.Client.kind with
      | Torsim.Client.Promiscuous ->
        Torsim.Client.make_promiscuous t.consensus ~ip:t.next_ip
          ~country:old.Torsim.Client.country ~asn:old.Torsim.Client.asn
      | Torsim.Client.Selective ->
        Torsim.Client.make_selective t.consensus rng ~ip:t.next_ip
          ~country:old.Torsim.Client.country ~asn:old.Torsim.Client.asn
          ~g:t.config.base.Population.guards_per_client
    in
    clients.(idx) <- fresh
  done;
  t.population <- { t.population with Population.clients }
