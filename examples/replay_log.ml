(* Example: the collector interface is decoupled from the simulator —
   observation events are recorded to a binary Evtrace segment, and a
   PrivCount deployment can be driven from the replayed segment instead
   of a live engine. Exits 1 if the replayed events differ from the
   recorded ones.

   Run with:  dune exec examples/replay_log.exe *)

let () =
  (* 1. simulate a day and record the observer's events to a segment file *)
  let rng = Prng.Rng.create 21 in
  let consensus =
    Torsim.Netgen.generate ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 200 } rng
  in
  let engine = Torsim.Engine.create ~seed:21 consensus in
  let observers =
    Torsim.Consensus.pick_observers_by_weight consensus rng ~role:`Exit ~target_fraction:0.05
  in
  let writer =
    Evtrace.Writer.create
      { Evtrace.seed = 21; shard = 0; shards = 1; config = [ ("relays", 200); ("visits", 5_000) ] }
  in
  let recorded = ref [] in
  List.iter
    (fun relay_id ->
      Torsim.Engine.add_sink engine relay_id (fun event ->
          recorded := event :: !recorded;
          Evtrace.Writer.event writer event))
    observers;
  let population =
    Workload.Population.build
      ~config:{ Workload.Population.default with Workload.Population.selective = 300; promiscuous = 0 }
      consensus rng
  in
  Workload.Exit_traffic.run engine population rng ~visits:5_000;
  let recorded = List.rev !recorded in
  let path = Filename.temp_file "tormeasure" ".seg" in
  Evtrace.Segment.write_file path (Evtrace.Writer.finish writer ~tallies:[]);
  Printf.printf "recorded %d events to %s\n" (List.length recorded) path;

  (* 2. later (or on another machine): replay the segment into a DC *)
  let segment =
    match Evtrace.Segment.read_file path with
    | Ok segment -> segment
    | Error e -> failwith (Evtrace.error_to_string e)
  in
  Sys.remove path;
  let replayed = ref [] in
  (match Evtrace.iter_events segment (fun e -> replayed := e :: !replayed) with
  | Ok _ -> ()
  | Error e -> failwith (Evtrace.error_to_string e));
  let replayed = List.rev !replayed in
  let deployment =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~split_budget:false
         [ Privcount.Counter.spec ~name:"initial_streams" ~sensitivity:1.0 ])
      ~num_dcs:1 ~seed:21
  in
  let initial_streams = Privcount.Deployment.counter_id deployment "initial_streams" in
  let sink =
    Privcount.Deployment.sink_for deployment ~dc:0 (fun emit -> function
      | Torsim.Event.Exit_stream { kind = Torsim.Event.Initial; _ } -> emit initial_streams 1
      | _ -> ())
  in
  List.iter sink replayed;
  let results = Privcount.Deployment.tally deployment in
  let r = Privcount.Ts.value_exn results "initial_streams" in
  Printf.printf "replayed %d events; noisy initial-stream count: %.0f (sigma %.1f)\n"
    (List.length replayed) r.Privcount.Ts.value r.Privcount.Ts.sigma;
  let lossless = replayed = recorded in
  Printf.printf "replayed events match the recording: %b\n" lossless;
  if not lossless then exit 1
