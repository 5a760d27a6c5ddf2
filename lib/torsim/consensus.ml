type t = {
  relays : Relay.t array;
  guard_sampler : Prng.Alias.t;
  middle_sampler : Prng.Alias.t;
  exit_sampler : Prng.Alias.t;
  guard_ids : Relay.id array;
  exits : Relay.id array;
  hsdir_ids : Relay.id array;
  total_guard : float;
  total_exit : float;
  total_middle : float;
}

let ids_with pred relays =
  Array.to_list relays
  |> List.filter pred
  |> List.map (fun r -> r.Relay.id)
  |> Array.of_list

let create relays =
  if Array.length relays = 0 then invalid_arg "Consensus.create: empty network";
  Array.iteri
    (fun i r -> if r.Relay.id <> i then invalid_arg "Consensus.create: ids must be dense 0..n-1")
    relays;
  let gw = Array.map Relay.guard_weight relays in
  let ew = Array.map Relay.exit_weight relays in
  let mw = Array.map Relay.middle_weight relays in
  let sum = Array.fold_left ( +. ) 0.0 in
  if sum gw <= 0.0 then invalid_arg "Consensus.create: no guard capacity";
  if sum ew <= 0.0 then invalid_arg "Consensus.create: no exit capacity";
  {
    relays;
    guard_sampler = Prng.Alias.create gw;
    middle_sampler = Prng.Alias.create mw;
    exit_sampler = Prng.Alias.create ew;
    guard_ids = ids_with (fun r -> r.Relay.flags.Relay.guard) relays;
    exits = ids_with (fun r -> r.Relay.flags.Relay.exit) relays;
    hsdir_ids = ids_with Relay.is_hsdir relays;
    total_guard = sum gw;
    total_exit = sum ew;
    total_middle = sum mw;
  }

let relays t = t.relays
let size t = Array.length t.relays

let relay t id =
  if id < 0 || id >= Array.length t.relays then invalid_arg "Consensus.relay: bad id";
  t.relays.(id)

let sample_guard t rng = Prng.Alias.sample t.guard_sampler rng
let sample_middle t rng = Prng.Alias.sample t.middle_sampler rng
let sample_exit t rng = Prng.Alias.sample t.exit_sampler rng
let sample_rendezvous = sample_middle
let guard_ids t = t.guard_ids
let hsdir_ids t = t.hsdir_ids

let fraction_of total weight_of t ids =
  let w = List.fold_left (fun acc id -> acc +. weight_of (relay t id)) 0.0 ids in
  w /. total t

let guard_fraction t = fraction_of (fun t -> t.total_guard) Relay.guard_weight t
let exit_fraction t = fraction_of (fun t -> t.total_exit) Relay.exit_weight t
let middle_fraction t = fraction_of (fun t -> t.total_middle) Relay.middle_weight t

let pick_observers_by_weight t rng ~role ~target_fraction =
  if target_fraction <= 0.0 || target_fraction > 1.0 then
    invalid_arg "Consensus.pick_observers_by_weight: bad fraction";
  let candidates, weight_of, total =
    match role with
    | `Guard -> (t.guard_ids, Relay.guard_weight, t.total_guard)
    | `Exit -> (t.exits, Relay.exit_weight, t.total_exit)
    | `Middle -> (Array.map (fun r -> r.Relay.id) t.relays, Relay.middle_weight, t.total_middle)
  in
  let pool = Array.copy candidates in
  Prng.Rng.shuffle rng pool;
  (* A real deployment runs several ordinary relays, not one giant one:
     prefer relays individually below half the target share so the set
     has a few members; fall back to anything if that underflows. *)
  let cap = Float.max (target_fraction /. 2.0) 0.002 *. total in
  let pick ~use_cap =
    let rec go i acc acc_w =
      if acc_w >= target_fraction *. total || i >= Array.length pool then (acc, acc_w)
      else
        let id = pool.(i) in
        let w = weight_of (relay t id) in
        if use_cap && w > cap then go (i + 1) acc acc_w
        else go (i + 1) (id :: acc) (acc_w +. w)
    in
    go 0 [] 0.0
  in
  let capped, capped_w = pick ~use_cap:true in
  if capped_w >= target_fraction *. total then capped else fst (pick ~use_cap:false)

let total_guard_weight t = t.total_guard
