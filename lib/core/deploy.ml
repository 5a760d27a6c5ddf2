(* The deploy driver owns everything the parties must not: the
   scenario interpretation (when to crash whom, which CP tampers, how
   many DCs exist this epoch) and the synthetic workload. Parties only
   ever see envelopes; the driver only ever calls spawn/ingest/publish
   entry points and the scheduler. *)

type config = {
  seed : int;
  epochs : int;
  num_dcs : int;
  num_sks : int;
  num_cps : int;
  table_size : int;
  noise_flips_per_cp : int;
  events_per_epoch : int;
  items_per_epoch : int;
}

let default_config ?(seed = 1) ?(epochs = 1) () =
  {
    seed;
    epochs;
    num_dcs = 3;
    num_sks = 2;
    num_cps = 3;
    table_size = 64;
    noise_flips_per_cp = 8;
    events_per_epoch = 60;
    items_per_epoch = 24;
  }

type publish = {
  epoch : int;
  pc : Privcount.Ts.result list;
  pc_bytes : string;
  psc : Psc.Protocol.result;
  psc_bytes : string;
  missing_dcs : int list;
}

type outcome = {
  scenario : string;
  publishes : publish list;
  digest : string;
  detected : bool;
  culprits : int list;
  restarts : int;
  stats : Bus.Sched.stats list;
  order_digests : string list;
  last_checkpoint : Bus.Checkpoint.t option;
}

(* Explicit left-to-right tabulation: spawning posts messages, so the
   order side effects happen in must not depend on List.init/Array.init
   evaluation order (unspecified). *)
let tabulate n f =
  let rec go i = if i = n then [] else let x = f i in x :: go (i + 1) in
  go 0

let epoch_seed cfg epoch = cfg.seed + (100003 * epoch)

let counter_specs =
  [
    Privcount.Counter.spec ~name:"exit.bytes" ~sensitivity:8.0;
    Privcount.Counter.spec ~name:"exit.circuits" ~sensitivity:1.0;
    Privcount.Counter.spec ~name:"exit.streams" ~sensitivity:2.0;
  ]

(* ------------------------------------------------------------------ *)
(* Synthetic workload: a pure function of (config, epoch, live DC
   count), so the bus run, the restarted run and the in-process
   reference all ingest the identical observation stream. *)

type workload = {
  pc_events : (int * string * int) array;  (* dc, counter, by *)
  psc_items : (int * string) array;  (* dc, item *)
}

let workload cfg ~epoch ~live =
  let rng = Prng.Rng.create (epoch_seed cfg epoch lxor 0x6465706c) in
  let names =
    Array.of_list
      (List.map (fun (s : Privcount.Counter.spec) -> s.name) counter_specs)
  in
  let pc_events = Array.make cfg.events_per_epoch (0, "", 0) in
  for i = 0 to cfg.events_per_epoch - 1 do
    let dc = Prng.Rng.below rng live in
    let name = names.(Prng.Rng.below rng (Array.length names)) in
    let by = 1 + Prng.Rng.below rng 3 in
    pc_events.(i) <- (dc, name, by)
  done;
  let psc_items = Array.make cfg.items_per_epoch (0, "") in
  for i = 0 to cfg.items_per_epoch - 1 do
    let dc = Prng.Rng.below rng live in
    (* item ids from a pool of 2x the insert count: collisions across
       DCs make the union genuinely smaller than the insert total *)
    let item =
      Printf.sprintf "client-%d-%d" epoch
        (Prng.Rng.below rng (2 * cfg.items_per_epoch))
    in
    psc_items.(i) <- (dc, item)
  done;
  { pc_events; psc_items }

(* ------------------------------------------------------------------ *)
(* The rounds both paths run: the bus parties and the in-process
   reference read the same configs, the malicious CP's tamper included. *)

let pc_round cfg = Privcount.Deployment.config ~num_sks:cfg.num_sks counter_specs

let psc_round cfg scenario =
  let tamper =
    Option.map
      (fun cp -> { Psc.Protocol.tampered_cp = cp; action = `Shuffle_swap })
      (Bus.Scenario.malicious_cp scenario)
  in
  Psc.Protocol.config ~num_cps:cfg.num_cps ~noise_flips_per_cp:cfg.noise_flips_per_cp ?tamper
    ~table_size:cfg.table_size ()

(* ------------------------------------------------------------------ *)
(* Per-epoch party set *)

type parties = {
  sched : Bus.Sched.t;
  live : int;
  pc_ts : Privcount.Node.ts;
  pc_dcs : Privcount.Node.dc array;
  pc_sks : Privcount.Node.sk array;
  psc_ts : Psc.Node.ts;
  psc_dcs : Psc.Node.dc array;
}

let spawn_parties cfg (scenario : Bus.Scenario.t) ~epoch =
  let eseed = epoch_seed cfg epoch in
  let live = Bus.Scenario.dcs_at scenario ~base_dcs:cfg.num_dcs ~epoch in
  (match Bus.Scenario.malicious_cp scenario with
  | Some cp when cp < 0 || cp >= cfg.num_cps ->
      invalid_arg "Deploy: malicious CP index outside the deployment"
  | _ -> ());
  let sched = Bus.Sched.create ~seed:eseed in
  List.iter
    (fun (party, factor) -> Bus.Sched.set_delay sched party factor)
    (Bus.Scenario.slow scenario);
  let pc_cfg = { Privcount.Node.round = pc_round cfg; num_dcs = live; seed = eseed } in
  let psc_cfg = { Psc.Node.round = psc_round cfg scenario; num_dcs = live; seed = eseed } in
  let pc_ts = Privcount.Node.spawn_ts sched pc_cfg in
  let pc_sks =
    Array.of_list
      (tabulate cfg.num_sks (fun id -> Privcount.Node.spawn_sk sched pc_cfg ~id))
  in
  let pc_dcs =
    Array.of_list
      (tabulate live (fun id -> Privcount.Node.spawn_dc sched ~epoch pc_cfg ~id))
  in
  let psc_ts = Psc.Node.spawn_ts sched psc_cfg in
  for id = 0 to cfg.num_cps - 1 do
    Psc.Node.spawn_cp sched ~epoch psc_cfg ~id
  done;
  let psc_dcs =
    Array.of_list (tabulate live (fun id -> Psc.Node.spawn_dc sched psc_cfg ~id))
  in
  { sched; live; pc_ts; pc_dcs; pc_sks; psc_ts; psc_dcs }

(* ------------------------------------------------------------------ *)
(* Checkpoint blobs: one entry per live party. A DC hosts both
   pipelines, so its blob is two length-prefixed sub-blobs. *)

let dc_blob p i =
  let w = Bus.Codec.W.create () in
  Bus.Codec.W.bytes w (Privcount.Node.dc_state p.pc_dcs.(i));
  Bus.Codec.W.bytes w (Psc.Node.dc_state p.psc_dcs.(i));
  Bus.Codec.W.contents w

let split_dc_blob blob =
  Bus.Codec.decode blob (fun r ->
      let pc = Bus.Codec.R.bytes r in
      let psc = Bus.Codec.R.bytes r in
      (pc, psc))

(* Capture and immediately round-trip: a blob that cannot survive the
   wire format must fail in every scenario, not only restart. *)
let checkpoint cfg (scenario : Bus.Scenario.t) p ~epoch =
  let dc_entries =
    List.concat
      (tabulate p.live (fun i ->
           if Bus.Sched.crashed p.sched (Bus.Party.Dc i) then []
           else [ { Bus.Checkpoint.party = Bus.Party.Dc i; state = dc_blob p i } ]))
  in
  let sk_entries =
    tabulate cfg.num_sks (fun i ->
        {
          Bus.Checkpoint.party = Bus.Party.Sk i;
          state = Privcount.Node.sk_state p.pc_sks.(i);
        })
  in
  let cp =
    {
      Bus.Checkpoint.seed = cfg.seed;
      scenario = scenario.Bus.Scenario.name;
      epoch;
      phase = "collect";
      entries = dc_entries @ sk_entries;
    }
  in
  match Bus.Checkpoint.decode (Bus.Checkpoint.encode cp) with
  | Ok cp -> cp
  | Error e ->
      invalid_arg
        (Printf.sprintf "Deploy.run: epoch %d checkpoint does not round-trip: %s" epoch
           (Bus.Codec.error_to_string e))

(* ------------------------------------------------------------------ *)
(* Epoch phases. Each takes the epoch's party set from the loop in
   [run]; setup and restore build a fresh one. *)

let setup cfg scenario ~epoch =
  let p = spawn_parties cfg scenario ~epoch in
  (* drain the exchange: blinding rows to the SKs, CP keys to the TS,
     the joint key out, the DC tables built *)
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats);
  p

let collect cfg scenario p ~epoch =
  let wl = workload cfg ~epoch ~live:p.live in
  let crash = Bus.Scenario.crashed_dc scenario ~epoch in
  (match crash with
  | Some d when d < 0 || d >= p.live ->
      invalid_arg "Deploy: crashed DC index outside the deployment"
  | _ -> ());
  let ev_half = Array.length wl.pc_events / 2 in
  Array.iteri
    (fun i (dc, name, by) ->
      (match crash with
      | Some d when i = ev_half -> Bus.Sched.crash p.sched (Bus.Party.Dc d)
      | _ -> ());
      let dead =
        match crash with Some d -> i >= ev_half && dc = d | None -> false
      in
      if not dead then Privcount.Node.dc_increment p.pc_dcs.(dc) ~name ~by)
    wl.pc_events;
  let it_half = Array.length wl.psc_items / 2 in
  Array.iteri
    (fun i (dc, item) ->
      let dead =
        match crash with Some d -> i >= it_half && dc = d | None -> false
      in
      if not dead then Psc.Node.dc_insert p.psc_dcs.(dc) item)
    wl.psc_items

let restore cfg scenario cp =
  (* Fresh scheduler, full setup replay: re-derives every DRBG stream
     from (seed, epoch), then the checkpoint blobs load the collected
     state over the replayed skeleton. *)
  let p = setup cfg scenario ~epoch:cp.Bus.Checkpoint.epoch in
  for i = 0 to p.live - 1 do
    match Bus.Checkpoint.find cp (Bus.Party.Dc i) with
    | None ->
        (* no blob means the DC was down when the checkpoint was taken;
           it stays down in the restored epoch *)
        Bus.Sched.crash p.sched (Bus.Party.Dc i)
    | Some blob -> (
        match split_dc_blob blob with
        | Error e ->
            invalid_arg
              ("Deploy.restore: malformed DC blob: "
              ^ Bus.Codec.error_to_string e)
        | Ok (pc_blob, psc_blob) ->
            (match Privcount.Node.dc_load p.pc_dcs.(i) pc_blob with
            | Ok () -> ()
            | Error e ->
                invalid_arg
                  ("Deploy.restore: PrivCount DC state: "
                  ^ Bus.Codec.error_to_string e));
            (match Psc.Node.dc_load p.psc_dcs.(i) psc_blob with
            | Ok () -> ()
            | Error e ->
                invalid_arg
                  ("Deploy.restore: PSC DC state: "
                  ^ Bus.Codec.error_to_string e)))
  done;
  for i = 0 to cfg.num_sks - 1 do
    match Bus.Checkpoint.find cp (Bus.Party.Sk i) with
    | Some blob ->
        if not (Privcount.Node.sk_check p.pc_sks.(i) blob) then
          invalid_arg "Deploy.restore: replayed SK state diverges from checkpoint"
    | None -> invalid_arg "Deploy.restore: checkpoint is missing an SK entry"
  done;
  p

let aggregate p ~epoch =
  let dcs = tabulate p.live Fun.id in
  Privcount.Node.ts_request_reports p.pc_ts ~epoch ~dcs;
  Psc.Node.ts_request_tables p.psc_ts ~epoch ~dcs;
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats);
  (* close with whatever arrived: missing DCs are excluded by the SKs
     (PrivCount dropout recovery) and absent from the PSC combine *)
  Privcount.Node.ts_close p.pc_ts ~epoch;
  Psc.Node.ts_start_aggregate p.psc_ts ~epoch;
  ignore (Bus.Sched.run p.sched : Bus.Sched.stats)

let publish p ~epoch =
  let pc, pc_bytes = Privcount.Node.ts_publish p.pc_ts in
  let psc, psc_bytes =
    match Psc.Node.ts_result p.psc_ts with
    | Some r -> r
    | None -> invalid_arg "Deploy: PSC cascade did not complete"
  in
  {
    epoch;
    pc;
    pc_bytes;
    psc;
    psc_bytes;
    missing_dcs = Privcount.Node.ts_missing_dcs p.pc_ts;
  }

(* The epoch loop. The restart epoch models an operator restart: its
   parties are dropped after collection and rebuilt from the decoded
   checkpoint. *)
let run cfg (scenario : Bus.Scenario.t) =
  if cfg.epochs < 1 then invalid_arg "Deploy.run: epochs must be >= 1";
  let publishes = ref [] and stats = ref [] and orders = ref [] in
  let restarts = ref 0 and last_checkpoint = ref None in
  for epoch = 0 to cfg.epochs - 1 do
    let phase name f =
      Obs.Ledger.phase ~attrs:[ ("epoch", string_of_int epoch) ] ("deploy." ^ name) f
    in
    let p = phase "setup" (fun () -> setup cfg scenario ~epoch) in
    phase "collect" (fun () -> collect cfg scenario p ~epoch);
    let cp = checkpoint cfg scenario p ~epoch in
    last_checkpoint := Some cp;
    let p =
      match Bus.Scenario.restart_epoch scenario with
      | Some e when e = epoch ->
          incr restarts;
          Obs.Ledger.note ~key:"deploy.restart"
            ~value:(Printf.sprintf "epoch=%d phase=%s" epoch cp.Bus.Checkpoint.phase);
          phase "setup" (fun () -> restore cfg scenario cp)
      | _ -> p
    in
    phase "aggregate" (fun () -> aggregate p ~epoch);
    phase "publish" (fun () ->
        publishes := publish p ~epoch :: !publishes;
        stats := Bus.Sched.run p.sched :: !stats;
        orders := Bus.Sched.order_digest p.sched :: !orders)
  done;
  let publishes = List.rev !publishes in
  {
    scenario = scenario.Bus.Scenario.name;
    publishes;
    digest =
      Crypto.Sha256.hex
        (String.concat "" (List.concat_map (fun p -> [ p.pc_bytes; p.psc_bytes ]) publishes));
    detected = List.exists (fun p -> not p.psc.Psc.Protocol.proofs_ok) publishes;
    culprits =
      List.sort_uniq compare
        (List.concat_map (fun p -> p.psc.Psc.Protocol.culprits) publishes);
    restarts = !restarts;
    stats = List.rev !stats;
    order_digests = List.rev !orders;
    last_checkpoint = !last_checkpoint;
  }

(* ------------------------------------------------------------------ *)
(* In-process reference: same seeds, same workload, no bus. *)

let run_reference cfg (scenario : Bus.Scenario.t) =
  if not (Bus.Scenario.reference_comparable scenario) then
    invalid_arg "Deploy.run_reference: crash has no in-process equivalent";
  Obs.with_enabled false (fun () ->
      let buf = Buffer.create 4096 in
      for epoch = 0 to cfg.epochs - 1 do
        let eseed = epoch_seed cfg epoch in
        let live = Bus.Scenario.dcs_at scenario ~base_dcs:cfg.num_dcs ~epoch in
        let wl = workload cfg ~epoch ~live in
        let round = Privcount.Deployment.create (pc_round cfg) ~num_dcs:live ~seed:eseed in
        Array.iter
          (fun (dc, name, by) ->
            Privcount.Deployment.increment round ~dc ~name ~by)
          wl.pc_events;
        Buffer.add_string buf
          (Privcount.Wire.encode_results (Privcount.Deployment.tally round));
        let proto = Psc.Protocol.create (psc_round cfg scenario) ~num_dcs:live ~seed:eseed in
        Array.iter (fun (dc, item) -> Psc.Protocol.insert proto ~dc item) wl.psc_items;
        Buffer.add_string buf (Psc.Wire.encode_result (Psc.Protocol.run proto))
      done;
      Crypto.Sha256.hex (Buffer.contents buf))
