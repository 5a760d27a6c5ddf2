(* Shared experiment plumbing: network construction, observer
   selection, PrivCount/PSC wiring against the simulation engine. *)

type setup = {
  engine : Torsim.Engine.t;
  consensus : Torsim.Consensus.t;
  rng : Prng.Rng.t;  (* workload randomness, independent of the engine's *)
}

let make_setup ?(relays = 600) ~seed () =
  Obs.Ledger.phase "harness.setup"
    ~attrs:[ ("relays", string_of_int relays); ("seed", string_of_int seed) ]
  @@ fun () ->
  let net_rng = Prng.Rng.create (seed * 13 + 1) in
  let consensus =
    Torsim.Netgen.generate ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays } net_rng
  in
  let engine = Torsim.Engine.create ~seed:(seed * 17 + 3) consensus in
  { engine; consensus; rng = Prng.Rng.create (seed * 23 + 5) }

(* Observer relays for a role, targeting a weight fraction; returns the
   ids and the exact fraction achieved (used for extrapolation, like the
   paper's "mean combined exit weight"). *)
let observers setup ~role ~target_fraction =
  let ids =
    Torsim.Consensus.pick_observers_by_weight setup.consensus setup.rng ~role ~target_fraction
  in
  let fraction =
    match role with
    | `Exit -> Torsim.Consensus.exit_fraction setup.consensus ids
    | `Guard -> Torsim.Consensus.guard_fraction setup.consensus ids
    | `Middle -> Torsim.Consensus.middle_fraction setup.consensus ids
  in
  if Obs.enabled () then begin
    let role_label =
      match role with `Exit -> "exit" | `Guard -> "guard" | `Middle -> "middle"
    in
    Obs.Ledger.note ~key:("harness.observers." ^ role_label)
      ~value:(Printf.sprintf "count=%d weight_fraction=%.9g" (List.length ids) fraction)
  end;
  (ids, fraction)

(* Attach a PrivCount deployment: one DC per observer relay. [sink] is
   push-style — [sink emit event] calls [emit id by] per increment,
   with counter ids resolved once at wiring time via
   [Deployment.counter_id] — so steady-state dispatch allocates
   nothing. *)
let attach_privcount setup deployment ~observer_ids ~sink =
  List.iteri
    (fun dc relay_id ->
      Torsim.Engine.add_sink setup.engine relay_id
        (Privcount.Deployment.sink_for deployment ~dc sink))
    observer_ids

(* Attach a PSC deployment: events mapped to items inserted at the
   relay's DC. *)
let attach_psc setup protocol ~observer_ids ~items =
  List.iteri
    (fun dc relay_id ->
      Torsim.Engine.add_sink setup.engine relay_id (fun event ->
          List.iter (fun item -> Psc.Protocol.insert protocol ~dc item) (items event)))
    observer_ids

(* Standard PSC sizing: table ~4x the expected unique items keeps the
   collision correction small and well-conditioned. *)
let psc_table_size ~expected_items =
  let target = max 1_024 (4 * expected_items) in
  (* round up to a power of two *)
  let rec pow2 n = if n >= target then n else pow2 (2 * n) in
  pow2 1_024
