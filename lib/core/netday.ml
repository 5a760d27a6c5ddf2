(* Sharded whole-network-day driver.

   One "network day" = every client in a simulated population runs its
   daily behaviour (guard connections, circuits, directory activity,
   entry bytes) plus a batch of exit website visits, and every emitted
   relay observation flows through the event->counter ingestion path.
   This is the system's throughput ceiling: the paper's deployment saw
   hundreds of millions of relay events per epoch, so the ingestion
   machinery — not the crypto — bounds how large a network we can
   simulate and measure.

   Scaling strategy: the client population is partitioned into a FIXED
   number of shards (independent of the worker-pool size). Each shard
   owns a private engine, ground truth, PRNG streams and counter
   accumulator; shards run on the lib/parallel domain pool and are
   merged in shard index order. Because the shard structure and every
   per-shard seed depend only on (seed, shard index), the merged result
   is bit-identical at any --jobs — the same determinism contract as
   the aggregation pipelines (DESIGN.md §3c). *)

type config = {
  relays : int;
  clients : int;            (* selective clients, split across shards *)
  promiscuous : int;        (* promiscuous clients, split likewise *)
  shards : int;             (* fixed shard count; NOT the pool size *)
  visits_per_client : int;  (* exit website visits driven per client *)
}

let default = { relays = 200; clients = 2_000; promiscuous = 4; shards = 8; visits_per_client = 2 }

type result = {
  tallies : (string * int) list;  (* merged ingestion counters, name-sorted *)
  events : int;                   (* events ingested through the counter sink *)
  per_shard_events : int array;
  truth : Torsim.Ground_truth.t;  (* merged exact truth, for cross-checking *)
}

(* The ingestion counter family: every event kind the day produces,
   including the hostname classifications (registered-domain and TLD)
   that the paper's exit measurements hang off. *)
let counter_names =
  [
    "connections"; "circuits:data"; "circuits:directory"; "directory_requests";
    "entry_mib"; "exit_mib"; "streams"; "streams:initial"; "streams:web";
    "sld:known"; "sld:unknown"; "tld:com"; "tld:onion"; "tld:other";
  ]

(* --- per-shard counter accumulator (the ingestion hot path) --- *)

(* The counter family interned once at module load: ids ascend in name
   order, so per-shard accumulators are flat int arrays and the merged
   tallies come out name-sorted for free. *)
let intern =
  Privcount.Counter.Intern.of_specs
    (List.map (fun name -> Privcount.Counter.spec ~name ~sensitivity:1.0) counter_names)

let c_connections = Privcount.Counter.Intern.id_exn intern "connections"
let c_circuits_data = Privcount.Counter.Intern.id_exn intern "circuits:data"
let c_circuits_dir = Privcount.Counter.Intern.id_exn intern "circuits:directory"
let c_dir_requests = Privcount.Counter.Intern.id_exn intern "directory_requests"
let c_entry_mib = Privcount.Counter.Intern.id_exn intern "entry_mib"
let c_exit_mib = Privcount.Counter.Intern.id_exn intern "exit_mib"
let c_streams = Privcount.Counter.Intern.id_exn intern "streams"
let c_streams_initial = Privcount.Counter.Intern.id_exn intern "streams:initial"
let c_streams_web = Privcount.Counter.Intern.id_exn intern "streams:web"
let c_sld_known = Privcount.Counter.Intern.id_exn intern "sld:known"
let c_sld_unknown = Privcount.Counter.Intern.id_exn intern "sld:unknown"
let c_tld_com = Privcount.Counter.Intern.id_exn intern "tld:com"
let c_tld_onion = Privcount.Counter.Intern.id_exn intern "tld:onion"
let c_tld_other = Privcount.Counter.Intern.id_exn intern "tld:other"

type acc = {
  counts : int array;  (* indexed by interned counter id *)
  mutable seen : int;
}

let make_acc () = { counts = Array.make (Privcount.Counter.Intern.size intern) 0; seen = 0 }

let mib bytes = int_of_float (bytes /. 1_048_576.0)

(* Push-style event sink over pre-resolved ids — the same shape as the
   PrivCount experiment sinks. Steady state allocates nothing. *)
let sink acc event =
  acc.seen <- acc.seen + 1;
  let bump id by = acc.counts.(id) <- acc.counts.(id) + by in
  match event with
  | Torsim.Event.Client_connection _ -> bump c_connections 1
  | Torsim.Event.Client_circuit { kind = Torsim.Event.Data_circuit; _ } ->
    bump c_circuits_data 1
  | Torsim.Event.Client_circuit { kind = Torsim.Event.Directory_circuit; _ } ->
    bump c_circuits_dir 1
  | Torsim.Event.Directory_request _ -> bump c_dir_requests 1
  | Torsim.Event.Entry_bytes { bytes; _ } -> bump c_entry_mib (mib bytes)
  | Torsim.Event.Exit_bytes { bytes } -> bump c_exit_mib (mib bytes)
  | Torsim.Event.Exit_stream { kind = Torsim.Event.Subsequent; _ } -> bump c_streams 1
  | Torsim.Event.Exit_stream { kind = Torsim.Event.Initial; dest; port } -> (
    bump c_streams 1;
    bump c_streams_initial 1;
    match dest with
    | Torsim.Event.Hostname h ->
      if Torsim.Event.is_web_port port then bump c_streams_web 1;
      bump
        (match Workload.Suffix.registered_domain h with
        | Some _ -> c_sld_known
        | None -> c_sld_unknown)
        1;
      bump
        (match Workload.Suffix.top_level_domain h with
        | Some "com" -> c_tld_com
        | Some "onion" -> c_tld_onion
        | Some _ | None -> c_tld_other)
        1
    | Torsim.Event.Ipv4_literal | Torsim.Event.Ipv6_literal -> ())
  | Torsim.Event.Descriptor_published _ | Torsim.Event.Descriptor_fetch _
  | Torsim.Event.Rendezvous_circuit _ -> ()

(* --- sharding --- *)

(* Shard s gets a contiguous slice of the population; sizes and IP
   offsets depend only on the config, never on scheduling. *)
let slice total shards s =
  let base = total / shards and extra = total mod shards in
  let size = base + (if s < extra then 1 else 0) in
  let offset = (s * base) + min s extra in
  (size, offset)

(* ascending id IS counter name order *)
let tallies_of_counts counts =
  Array.to_list (Array.mapi (fun c v -> (Privcount.Counter.Intern.name intern c, v)) counts)

(* The recording's provenance pairs, embedded in every segment header
   and compared on replay (order is part of the format). *)
let config_pairs config =
  [
    ("relays", config.relays);
    ("clients", config.clients);
    ("promiscuous", config.promiscuous);
    ("shards", config.shards);
    ("visits_per_client", config.visits_per_client);
  ]

let run_day ~record ~config ~seed =
  if config.shards < 1 then invalid_arg "Netday.run: need at least one shard";
  if config.clients < 0 || config.promiscuous < 0 then
    invalid_arg "Netday.run: negative population";
  if config.visits_per_client < 0 then invalid_arg "Netday.run: negative visits";
  Obs.Ledger.phase "netday.run"
    ~attrs:
      [ ("relays", string_of_int config.relays);
        ("clients", string_of_int (config.clients + config.promiscuous));
        ("shards", string_of_int config.shards);
        ("record", string_of_bool record);
        ("jobs", string_of_int (Parallel.jobs ())) ]
  @@ fun () ->
  let net_rng = Prng.Rng.create ((seed * 13) + 1) in
  let consensus =
    Obs.Ledger.phase "netday.generate" (fun () ->
        Torsim.Netgen.generate
          ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = config.relays }
          net_rng)
  in
  (* Two independent 64-bit streams per shard — one for the shard's
     engine, one for its workload — fixed by (seed, shard) alone. *)
  let shard_words = Prng.Splitmix64.expand (Int64.of_int ((seed * 31) + 17)) (2 * config.shards) in
  let shard_seed i = Int64.to_int shard_words.(i) land max_int in
  let total_clients = config.clients + config.promiscuous in
  let run_shard s =
    let selective, sel_off = slice config.clients config.shards s in
    let promiscuous, prom_off = slice config.promiscuous config.shards s in
    let engine = Torsim.Engine.create ~seed:(shard_seed (2 * s)) consensus in
    let acc = make_acc () in
    (* When recording, every counted event is also appended to the
       shard's trace writer: the segment captures exactly the stream
       the live sink ingested, in delivery order. *)
    let writer =
      if record then
        Some
          (Evtrace.Writer.create
             { Evtrace.seed; shard = s; shards = config.shards; config = config_pairs config })
      else None
    in
    let count = sink acc in
    let shard_sink =
      match writer with
      | None -> count
      | Some w ->
        fun ev ->
          count ev;
          Evtrace.Writer.event w ev
    in
    for relay = 0 to Torsim.Consensus.size consensus - 1 do
      Torsim.Engine.add_sink engine relay shard_sink
    done;
    let rng = Prng.Rng.create (shard_seed ((2 * s) + 1)) in
    let population =
      Workload.Population.build
        ~config:
          {
            Workload.Population.selective;
            promiscuous;
            guards_per_client = Workload.Population.default.Workload.Population.guards_per_client;
            (* globally unique IPs: shard s starts after every earlier
               shard's slice of both classes *)
            ip_offset = sel_off + prom_off;
          }
        consensus rng
    in
    Workload.Behavior.run_population_day engine population rng;
    let visits = Workload.Population.size population * config.visits_per_client in
    if visits > 0 && Workload.Population.size population > 0 then
      Workload.Exit_traffic.run engine population rng ~visits;
    (* Seal the segment in-worker (pure function of the shard's event
       stream), so recording parallelizes with the simulation. *)
    let segment =
      Option.map (fun w -> Evtrace.Writer.finish w ~tallies:(tallies_of_counts acc.counts)) writer
    in
    (acc, Torsim.Engine.truth engine, segment)
  in
  (* Shard workers record no telemetry; the phases around the pool
     call do. The empty population short-circuits to plain Array.init
     — no pool spin-up for no work. *)
  let shard_results =
    Obs.Ledger.phase "netday.shards" (fun () ->
        if total_clients = 0 then Array.init config.shards run_shard
        else Parallel.parallel_init ~min_chunk:1 config.shards run_shard)
  in
  Obs.Ledger.phase "netday.merge"
  @@ fun () ->
  (* Merge in shard index order. *)
  let truth = Torsim.Ground_truth.create () in
  Array.iter (fun (_, t, _) -> Torsim.Ground_truth.merge_into ~dst:truth t) shard_results;
  let totals = Array.make (Privcount.Counter.Intern.size intern) 0 in
  Array.iter
    (fun (acc, _, _) -> Array.iteri (fun c v -> totals.(c) <- totals.(c) + v) acc.counts)
    shard_results;
  let tallies = tallies_of_counts totals in
  let per_shard_events = Array.map (fun (acc, _, _) -> acc.seen) shard_results in
  let events = Array.fold_left ( + ) 0 per_shard_events in
  let segments = Array.map (fun (_, _, seg) -> seg) shard_results in
  ({ tallies; events; per_shard_events; truth }, segments)

let run ?(config = default) ~seed () = fst (run_day ~record:false ~config ~seed)

(* --- record --- *)

type recording = { result : result; segments : string array }

let record ?(config = default) ~seed () =
  let result, segments = run_day ~record:true ~config ~seed in
  { result; segments = Array.map Option.get segments }

let segment_path ~prefix ~shard = Printf.sprintf "%s.seg%d" prefix shard

let load_recording ~prefix =
  let load shard =
    match Evtrace.Segment.read_file (segment_path ~prefix ~shard) with
    | Ok seg -> seg
    | Error e -> raise (Evtrace.Error e)
  in
  let first = load 0 in
  let shards = first.Evtrace.Segment.meta.Evtrace.shards in
  Array.init shards (fun s -> if s = 0 then first else load s)

(* --- replay --- *)

type replay_result = {
  replayed_tallies : (string * int) list;
  replayed_events : int;
  replayed_per_shard : int array;
}

(* Cross-segment provenance: same recording, shards 0..n-1 in order. *)
let validate_segments segments =
  let n = Array.length segments in
  if n = 0 then invalid_arg "Netday.replay: no segments";
  let first = segments.(0).Evtrace.Segment.meta in
  if first.Evtrace.shards <> n then
    raise
      (Evtrace.Mismatch
         { Evtrace.shard = -1; what = "shards"; expected = first.Evtrace.shards; got = n });
  Array.iteri
    (fun s (seg : Evtrace.Segment.t) ->
      if seg.meta.Evtrace.shard <> s then
        raise (Evtrace.Mismatch { Evtrace.shard = s; what = "shard index"; expected = s; got = seg.meta.Evtrace.shard });
      if not (Evtrace.meta_equal_recording first seg.meta) then
        raise (Evtrace.Error (Bus.Codec.Invalid (Printf.sprintf "segment %d is from a different recording" s))))
    segments

(* The replay ingestion sink: same dispatch and increments as the live
   [sink], but over the decoded flat view. Hostname classification is
   resolved once per interned id at segment load — replay never hashes
   a hostname in the hot loop — using the same [Workload.Suffix]
   functions as the live path, so the tallies are byte-identical. *)
let replay_sink acc (seg : Evtrace.Segment.t) =
  let nhosts = Array.length seg.Evtrace.Segment.hosts in
  let sld_known = Bytes.create nhosts in
  let tld_cls = Bytes.create nhosts in
  Array.iteri
    (fun i h ->
      Bytes.unsafe_set sld_known i
        (match Workload.Suffix.registered_domain h with Some _ -> '\001' | None -> '\000');
      Bytes.unsafe_set tld_cls i
        (match Workload.Suffix.top_level_domain h with
        | Some "com" -> '\000'
        | Some "onion" -> '\001'
        | Some _ | None -> '\002'))
    seg.Evtrace.Segment.hosts;
  let bump id by = acc.counts.(id) <- acc.counts.(id) + by in
  fun (v : Evtrace.View.t) ->
    acc.seen <- acc.seen + 1;
    match v.Evtrace.View.kind with
    | Evtrace.View.Connection -> bump c_connections 1
    | Circuit_data -> bump c_circuits_data 1
    | Circuit_directory -> bump c_circuits_dir 1
    | Directory_request -> bump c_dir_requests 1
    | Entry_bytes -> bump c_entry_mib (mib v.vol.value)
    | Exit_bytes -> bump c_exit_mib (mib v.vol.value)
    | Stream_subsequent -> bump c_streams 1
    | Stream_initial ->
      bump c_streams 1;
      bump c_streams_initial 1;
      let h = v.host in
      if h >= 0 then begin
        if Torsim.Event.is_web_port v.port then bump c_streams_web 1;
        bump (if Bytes.unsafe_get sld_known h = '\001' then c_sld_known else c_sld_unknown) 1;
        bump
          (match Bytes.unsafe_get tld_cls h with
          | '\000' -> c_tld_com
          | '\001' -> c_tld_onion
          | _ -> c_tld_other)
          1
      end
    | Descriptor_published | Descriptor_fetch | Rendezvous -> ()

let replay ?(repeat = 1) ?(verify = false) segments =
  if repeat < 1 then invalid_arg "Netday.replay: repeat must be positive";
  validate_segments segments;
  let shards = Array.length segments in
  Obs.Ledger.phase "replay.run"
    ~attrs:
      [ ("shards", string_of_int shards);
        ("repeat", string_of_int repeat);
        ("jobs", string_of_int (Parallel.jobs ())) ]
  @@ fun () ->
  let replay_shard s =
    let seg = segments.(s) in
    let acc = make_acc () in
    let sink = replay_sink acc seg in
    for _ = 1 to repeat do
      match Evtrace.iter seg sink with
      | Ok _ -> ()
      | Error e -> raise (Evtrace.Error e)
    done;
    acc
  in
  let shard_accs =
    Obs.Ledger.phase "replay.shards" (fun () ->
        Parallel.parallel_init ~min_chunk:1 shards replay_shard)
  in
  Obs.Ledger.phase "replay.merge"
  @@ fun () ->
  (* Merge in shard index order, exactly like the live run. *)
  let totals = Array.make (Privcount.Counter.Intern.size intern) 0 in
  Array.iter
    (fun acc -> Array.iteri (fun c v -> totals.(c) <- totals.(c) + v) acc.counts)
    shard_accs;
  let per_shard = Array.map (fun acc -> acc.seen) shard_accs in
  let events = Array.fold_left ( + ) 0 per_shard in
  if verify then begin
    (* Replay must reproduce the recording: per-shard event counts and
       every recorded tally, scaled by [repeat]. *)
    Array.iteri
      (fun s (seg : Evtrace.Segment.t) ->
        let expected = seg.events * repeat in
        if per_shard.(s) <> expected then
          raise (Evtrace.Mismatch { Evtrace.shard = s; what = "events"; expected; got = per_shard.(s) });
        List.iter
          (fun (name, recorded) ->
            let id =
              match Privcount.Counter.Intern.find intern name with
              | Some id -> id
              | None ->
                raise
                  (Evtrace.Error
                     (Bus.Codec.Invalid (Printf.sprintf "recorded counter %S is not in the ingestion family" name)))
            in
            let expected = recorded * repeat in
            let got = shard_accs.(s).counts.(id) in
            if got <> expected then
              raise (Evtrace.Mismatch { Evtrace.shard = s; what = "tally:" ^ name; expected; got }))
          seg.tallies)
      segments
  end;
  { replayed_tallies = tallies_of_counts totals; replayed_events = events; replayed_per_shard = per_shard }
