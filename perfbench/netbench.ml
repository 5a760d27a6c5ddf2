(* Network-day benchmark harness: three workloads over the lib/ layers.

     netbench.exe --workload NAME --seed N --seconds S --trace 0|1
     netbench.exe --smoke

   Every timed pass runs at jobs=1 with telemetry off, and the gated
   figures are each run's fastest pass: host interference arrives in
   multi-second phases and only ever adds time (README.md). A traced
   run (--trace 1) additionally attributes one telemetry-on pass of
   every workload to the lib/ layers, from public calls timed here plus
   the Phase and Proof events the program already records. The last
   stdout line is one JSON object; everything before it is a report. *)

open Tormeasure

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* fastest wall time of [n] calls *)
let fastest n f =
  let best = ref infinity in
  for _ = 1 to n do
    best := Float.min !best (fst (time f))
  done;
  !best

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Metric names and units; BENCHMARK.json lists the same pairs *)

let end_to_end = [ ("pass_ms", "ms"); ("setup_s", "s"); ("peak_rss_mib", "MiB") ]

let per_layer =
  [
    (* replay-day *)
    ("netday.generate_s", "s");
    ("evtrace.encode_s", "s");
    ("evtrace.bytes_per_event", "B");
    ("evtrace.decode_ns_per_event", "ns");
    ("netday.ingest_ns_per_event", "ns");
    ("netday.verify_ns_per_event", "ns");
    ("netday.unattributed_ns_per_event", "ns");
    ("gc.minor_words_per_event", "words");
    (* psc-unique-ips *)
    ("psc.items", "count");
    ("psc.slots", "count");
    ("psc.create_s", "s");
    ("psc.insert_s", "s");
    ("psc.run_s", "s");
    ("psc.combine_s", "s");
    ("psc.noise_s", "s");
    ("psc.shuffle_s", "s");
    ("psc.rerandomize_s", "s");
    ("psc.decrypt_s", "s");
    ("psc.estimate_s", "s");
    ("psc.unattributed_s", "s");
    ("psc.proofs_checked", "count");
    ("gc.alloc_mib_per_round", "MiB");
    ("crypto.pow_tab_ns", "ns");
    ("crypto.multi_exp_ns_per_term", "ns");
    ("crypto.drbg_ns_per_draw", "ns");
    (* bus-deploy *)
    ("deploy.setup_s", "s");
    ("deploy.collect_s", "s");
    ("deploy.aggregate_s", "s");
    ("deploy.publish_s", "s");
    ("deploy.unattributed_s", "s");
    ("deploy.inproc_epoch_s", "s");
    ("bus.overhead_s", "s");
    ("bus.messages_per_epoch", "count");
    ("bus.bytes_per_epoch", "B");
    ("bus.envelope_roundtrip_ns_per_kib", "ns");
    ("gc.alloc_mib_per_epoch", "MiB");
    (* the named workload's own passes *)
    ("run.contention_ratio", "ratio");
    ("obs.overhead", "ratio");
    ("parallel.efficiency_j2", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Sizes *)

type sizes = {
  day : Netday.config;
  repeat : int;  (** replays of the day per replay-day pass *)
  psc_slots : int;
  psc_flips : int;  (** noise flips per CP *)
  deploy : seed:int -> Deploy.config;
  probes : int;  (** repetitions behind each traced-run probe *)
  probe_n : int;  (** operations per crypto/envelope probe *)
}

let full =
  {
    day = { Netday.default with Netday.clients = 4_000; shards = 8; relays = 200 };
    repeat = 10;
    psc_slots = 1 lsl 14;
    psc_flips = 64;
    deploy =
      (fun ~seed ->
        {
          (Deploy.default_config ~seed ~epochs:4 ()) with
          Deploy.num_dcs = 8;
          num_sks = 2;
          num_cps = 3;
          table_size = 1024;
          items_per_epoch = 256;
          events_per_epoch = 2_000;
        });
    probes = 3;
    probe_n = 1 lsl 16;
  }

let tiny =
  {
    day = { Netday.default with Netday.clients = 200; shards = 4; relays = 80 };
    repeat = 2;
    psc_slots = 256;
    psc_flips = 8;
    deploy = (fun ~seed -> Deploy.default_config ~seed ~epochs:2 ());
    probes = 1;
    probe_n = 256;
  }

(* ------------------------------------------------------------------ *)
(* Workloads *)

type layers = {
  traced_s : float;  (** one telemetry-on pass *)
  rows : (string * float) list;  (** seconds of that pass per layer *)
  metrics : (string * float) list;  (** per-layer metrics *)
}

type prepared = {
  pass : unit -> unit;  (** one checked pass; raises on a wrong output *)
  layers : unit -> layers;
}

type workload = {
  name : string;
  setup : sizes -> seed:int -> prepared;
}

(* One call with telemetry on; returns its wall time, its value and the
   ledger it wrote. *)
let traced f =
  Obs.reset ();
  let dt, r = Obs.with_enabled true (fun () -> time f) in
  let events = Obs.Ledger.events () in
  Obs.reset ();
  (dt, r, events)

let phase_s events name =
  List.fold_left
    (fun acc -> function
      | Obs.Ledger.Phase { name = n; wall_s; _ } when String.equal n name -> acc +. wall_s
      | _ -> acc)
    0.0 events

let proofs events =
  List.length (List.filter (function Obs.Ledger.Proof _ -> true | _ -> false) events)

let alloc_mib f =
  let a0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. a0) /. 1_048_576.0

let ok_or_fail what = function
  | Ok x -> x
  | Error e -> fail "%s: %s" what (Evtrace.error_to_string e)

let record_day sz ~seed =
  let recording = Netday.record ~config:sz.day ~seed () in
  let segments =
    Array.map (fun s -> ok_or_fail "segment" (Evtrace.Segment.decode s)) recording.Netday.segments
  in
  (recording, segments)

let replay_day sz ~seed =
  let recording, segments = record_day sz ~seed in
  let day_events = recording.Netday.result.Netday.events in
  let events = day_events * sz.repeat in
  let per_event s = s *. 1e9 /. float_of_int events in
  let pass () =
    let r = Netday.replay ~repeat:sz.repeat ~verify:true segments in
    if r.Netday.replayed_events <> events then
      fail "replayed %d events, expected %d" r.Netday.replayed_events events
  in
  let layers () =
    let n = sz.probes in
    let generate = fastest n (fun () -> ignore (Netday.run ~config:sz.day ~seed ())) in
    let record = fastest n (fun () -> ignore (Netday.record ~config:sz.day ~seed ())) in
    let noop (_ : Evtrace.View.t) = () in
    let decode =
      fastest n (fun () ->
          for _ = 1 to sz.repeat do
            Array.iter (fun seg -> ignore (ok_or_fail "decode" (Evtrace.iter seg noop))) segments
          done)
    in
    let replayed = fastest n pass in
    let w0 = Gc.minor_words () in
    pass ();
    let minor_words = Gc.minor_words () -. w0 in
    let traced_s, (), ev = traced pass in
    let shards = phase_s ev "replay.shards" and merge = phase_s ev "replay.merge" in
    let bytes = Array.fold_left (fun a s -> a + String.length s) 0 recording.Netday.segments in
    {
      traced_s;
      rows =
        [ ("evtrace.decode", decode); ("netday.ingest", shards -. decode); ("netday.merge+verify", merge) ];
      metrics =
        [
          ("netday.generate_s", generate);
          ("evtrace.encode_s", record -. generate);
          ("evtrace.bytes_per_event", float_of_int bytes /. float_of_int day_events);
          ("evtrace.decode_ns_per_event", per_event decode);
          ("netday.ingest_ns_per_event", per_event (replayed -. decode));
          ("netday.verify_ns_per_event", per_event merge);
          ("netday.unattributed_ns_per_event", per_event (traced_s -. shards -. merge));
          ("gc.minor_words_per_event", minor_words /. float_of_int events);
        ];
    }
  in
  { pass; layers }

(* Each shard's distinct client IPs, first-seen order, from the
   recording's Connection records: one PSC data collector per shard. *)
let unique_ips segments =
  Array.map
    (fun seg ->
      let seen = Hashtbl.create 1024 and items = ref [] in
      let collect (v : Evtrace.View.t) =
        match v.Evtrace.View.kind with
        | Evtrace.View.Connection when not (Hashtbl.mem seen v.ip) ->
          Hashtbl.add seen v.ip ();
          items := v.ip :: !items
        | _ -> ()
      in
      ignore (ok_or_fail "extract" (Evtrace.iter seg collect));
      Array.of_list (List.rev_map string_of_int !items))
    segments

(* Micro-probes of the crypto kernels under the PSC round, at the
   round's sizes: per fixed-base power, per multi-exp term at the
   round's vector length, per bulk DRBG draw. *)
let crypto_probes sz ~vector =
  let open Crypto in
  let drbg = Drbg.create "netbench-crypto" in
  let n = sz.probe_n in
  let exps = Group.random_exps drbg n in
  let base = Group.random_elt drbg in
  let tab = Group.precomp base in
  let acc = ref Group.one in
  let pow_reps = 16 and mexp_reps = max 1 (n / 1024) in
  let pow =
    fastest sz.probes (fun () ->
        for _ = 1 to pow_reps do
          Array.iter (fun e -> acc := Group.mul !acc (Group.pow_tab ~tab base e)) exps
        done)
  in
  let bases = Array.init vector (fun _ -> Group.random_elt drbg) in
  let mexps = Group.random_exps drbg vector in
  let mexp =
    fastest sz.probes (fun () ->
        for _ = 1 to mexp_reps do
          acc := Group.mul !acc (Group.multi_exp ~bases ~exps:mexps)
        done)
  in
  let draw = fastest sz.probes (fun () -> ignore (Drbg.uniform_array drbg Group.q n)) in
  ignore (Sys.opaque_identity !acc);
  [
    ("crypto.pow_tab_ns", pow *. 1e9 /. float_of_int (pow_reps * n));
    ("crypto.multi_exp_ns_per_term", mexp *. 1e9 /. float_of_int (mexp_reps * vector));
    ("crypto.drbg_ns_per_draw", draw *. 1e9 /. float_of_int n);
  ]

let psc_unique_ips sz ~seed =
  let _, segments = record_day sz ~seed in
  let items = unique_ips segments in
  let num_cps = 3 in
  let cfg =
    Psc.Protocol.config ~num_cps ~noise_flips_per_cp:sz.psc_flips ~proof_rounds:(Some 2) ~verify:true
      ~table_size:sz.psc_slots ()
  in
  let create () = Psc.Protocol.create cfg ~num_dcs:(Array.length items) ~seed in
  let insert t = Array.iteri (fun dc xs -> Array.iter (Psc.Protocol.insert t ~dc) xs) items in
  (* every pass runs the same seed, so every published result must be
     byte-identical to the first *)
  let first = ref None in
  let check (r : Psc.Protocol.result) =
    if (not r.proofs_ok) || r.culprits <> [] then
      fail "PSC proofs failed (culprits: %s)" (String.concat "," (List.map string_of_int r.culprits));
    let bytes = Psc.Wire.encode_result r in
    match !first with
    | None -> first := Some bytes
    | Some b -> if not (String.equal b bytes) then fail "PSC result differs from the run's first pass"
  in
  let pass () =
    let t = create () in
    insert t;
    check (Psc.Protocol.run t)
  in
  let layers () =
    let traced_s, (create_s, insert_s, run_s), ev =
      traced (fun () ->
          let create_s, t = time create in
          let insert_s, () = time (fun () -> insert t) in
          let run_s, r = time (fun () -> Psc.Protocol.run t) in
          check r;
          (create_s, insert_s, run_s))
    in
    let phases =
      List.map
        (fun p -> ("psc." ^ p, phase_s ev ("psc." ^ p)))
        [ "combine"; "noise"; "shuffle"; "rerandomize"; "decrypt"; "estimate" ]
    in
    let rows = ("psc.create", create_s) :: ("psc.insert", insert_s) :: phases in
    let attributed = List.fold_left (fun a (_, s) -> a +. s) 0.0 rows in
    let items_n = Array.fold_left (fun a xs -> a + Array.length xs) 0 items in
    {
      traced_s;
      rows;
      metrics =
        [
          ("psc.items", float_of_int items_n);
          ("psc.slots", float_of_int sz.psc_slots);
          ("psc.create_s", create_s);
          ("psc.insert_s", insert_s);
          ("psc.run_s", run_s);
        ]
        @ List.map (fun (name, s) -> (name ^ "_s", s)) phases
        @ [
            ("psc.unattributed_s", traced_s -. attributed);
            ("psc.proofs_checked", float_of_int (proofs ev));
            ("gc.alloc_mib_per_round", alloc_mib pass);
          ]
        @ crypto_probes sz ~vector:(sz.psc_slots + (num_cps * sz.psc_flips));
    }
  in
  { pass; layers }

let bus_deploy sz ~seed =
  let cfg = sz.deploy ~seed in
  let benign =
    match Bus.Scenario.find "benign" with Some s -> s | None -> fail "no benign scenario"
  in
  let reference = Deploy.run_reference cfg benign in
  let epochs = float_of_int cfg.Deploy.epochs in
  let run () =
    let o = Deploy.run cfg benign in
    if o.Deploy.detected then fail "benign deployment reported failed proofs";
    if not (String.equal o.Deploy.digest reference) then
      fail "bus digest %s differs from the in-process reference %s" o.Deploy.digest reference;
    o
  in
  let pass () = ignore (run ()) in
  let layers () =
    let inproc = fastest sz.probes (fun () -> ignore (Deploy.run_reference cfg benign)) in
    let bus = fastest sz.probes pass in
    let stats = ref [] in
    let alloc = alloc_mib (fun () -> stats := (run ()).Deploy.stats) in
    let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !stats) in
    let messages = sum (fun s -> s.Bus.Sched.delivered) and bytes = sum (fun s -> s.Bus.Sched.bytes) in
    let mean = int_of_float (bytes /. messages) in
    let env =
      {
        Bus.Envelope.epoch = 0;
        seq = 0;
        src = Bus.Party.Ts;
        dst = Bus.Party.Cp 0;
        kind = "psc.shuffle_request";
        body = String.make mean '\x5a';
      }
    in
    let trips = sz.probe_n / 16 in
    let roundtrip =
      fastest sz.probes (fun () ->
          for _ = 1 to trips do
            match Bus.Envelope.decode (Bus.Envelope.encode env) with
            | Ok _ -> ()
            | Error e -> fail "envelope: %s" (Bus.Codec.error_to_string e)
          done)
    in
    let traced_s, (), ev = traced pass in
    let rows =
      List.map
        (fun p -> ("deploy." ^ p, phase_s ev ("deploy." ^ p)))
        [ "setup"; "collect"; "aggregate"; "publish" ]
    in
    let attributed = List.fold_left (fun a (_, s) -> a +. s) 0.0 rows in
    {
      traced_s;
      rows;
      metrics =
        List.map (fun (name, s) -> (name ^ "_s", s /. epochs)) rows
        @ [
            ("deploy.unattributed_s", (traced_s -. attributed) /. epochs);
            ("deploy.inproc_epoch_s", inproc /. epochs);
            ("bus.overhead_s", (bus -. inproc) /. epochs);
            ("bus.messages_per_epoch", messages /. epochs);
            ("bus.bytes_per_epoch", bytes /. epochs);
            ( "bus.envelope_roundtrip_ns_per_kib",
              roundtrip *. 1e9 /. float_of_int trips /. (float_of_int mean /. 1024.0) );
            ("gc.alloc_mib_per_epoch", alloc /. epochs);
          ];
    }
  in
  { pass; layers }

let workloads =
  [
    {
      name = "replay-day";
      setup = replay_day;
    };
    {
      name = "psc-unique-ips";
      setup = psc_unique_ips;
    };
    {
      name = "bus-deploy";
      setup = bus_deploy;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement *)

type counts = { mutable attempted : int; mutable failed : int }

(* Run one checked pass; a wrong output or an exception counts failed. *)
let checked counts f =
  counts.attempted <- counts.attempted + 1;
  match f () with
  | () -> true
  | exception e ->
    counts.failed <- counts.failed + 1;
    let msg = match e with Failed m -> m | e -> Printexc.to_string e in
    Printf.eprintf "netbench: pass failed: %s\n%!" msg;
    false

(* Linux's high-water mark of the resident set; nan (so the run is not
   correct) where it cannot be read *)
let peak_rss_mib () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:nan

type outcome = {
  counts : counts;
  passes : int;
  metrics : (string * float) list;
  report : string list;
}

let min_passes = 3

(* The traced sweep of one workload: its layer table (rows plus an
   explicit unattributed row summing to the traced pass) and metrics. *)
let layer_report w p =
  let l = p.layers () in
  let rows = l.rows @ [ ("unattributed", l.traced_s -. List.fold_left (fun a (_, s) -> a +. s) 0.0 l.rows) ] in
  let lines =
    Printf.sprintf "layers of one traced %s pass (%.4f s):" w.name l.traced_s
    :: List.map
         (fun (name, s) -> Printf.sprintf "  %-24s %10.6f s %6.1f%%" name s (100.0 *. s /. l.traced_s))
         rows
  in
  (l.metrics, lines)

let measure sz w ~seed ~seconds ~trace =
  Parallel.set_jobs 1;
  Obs.set_enabled false;
  let counts = { attempted = 0; failed = 0 } in
  let setup () = fst (time (fun () -> w.setup sz ~seed)) in
  let first_setup, p = time (fun () -> w.setup sz ~seed) in
  Gc.compact ();
  ignore (checked counts p.pass : bool);
  (* Host slowdowns last seconds to tens of seconds, so setups and
     passes alternate over the whole window and both minima sample the
     same host phases. Passes all run on the first setup's state; the
     later setups are timed and dropped. Each starts from a compacted
     heap. *)
  let passes = ref [] and setups = ref [ first_setup ] in
  let deadline = now () +. seconds in
  while now () < deadline || counts.attempted <= min_passes do
    Gc.compact ();
    let dt, ok = time (fun () -> checked counts p.pass) in
    if ok then passes := dt :: !passes;
    Gc.compact ();
    setups := setup () :: !setups
  done;
  let passes = !passes and setup_s = List.fold_left Float.min infinity !setups in
  let best = List.fold_left Float.min infinity passes in
  let report =
    [
      Printf.sprintf "%s: %d timed passes in %.1f s; fastest %.4f s, median %.4f s; setup fastest %.4f s of %d"
        w.name (List.length passes) seconds best (median passes) setup_s (List.length !setups);
    ]
  in
  if not trace then
    {
      counts;
      passes = List.length passes;
      metrics = [ ("pass_ms", best *. 1e3); ("setup_s", setup_s); ("peak_rss_mib", peak_rss_mib ()) ];
      report;
    }
  else begin
    let traced_best () =
      let best = ref infinity in
      for _ = 1 to sz.probes do
        let dt, ok, _ = traced (fun () -> checked counts p.pass) in
        if ok then best := Float.min !best dt
      done;
      !best
    in
    let t1 = traced_best () in
    Parallel.set_jobs 2;
    let t2 = Fun.protect ~finally:(fun () -> Parallel.set_jobs 1) traced_best in
    let own =
      [
        ("run.contention_ratio", median passes /. best);
        ("obs.overhead", t1 /. best);
        ("parallel.efficiency_j2", t1 /. (2.0 *. t2));
      ]
    in
    (* every traced run attributes all three workloads, so each prints
       the full per-layer set *)
    let metrics, lines =
      List.fold_left
        (fun (ms, ls) v ->
          match layer_report v (if v.name = w.name then p else v.setup sz ~seed) with
          | m, l -> (ms @ m, ls @ l)
          | exception e ->
            counts.attempted <- counts.attempted + 1;
            counts.failed <- counts.failed + 1;
            Printf.eprintf "netbench: traced %s failed: %s\n%!" v.name (Printexc.to_string e);
            (ms, ls))
        ([], []) workloads
    in
    { counts; passes = List.length passes; metrics = metrics @ own; report = report @ lines }
  end

(* ------------------------------------------------------------------ *)
(* Output *)

let spec ~trace = if trace then per_layer else end_to_end

(* Correct when no pass failed and exactly the spec's metrics were
   measured, each a finite number. *)
let correct ~trace o =
  o.counts.failed = 0
  && List.length o.metrics = List.length (spec ~trace)
  && List.for_all
       (fun (name, _) ->
         match List.assoc_opt name o.metrics with Some v -> Float.is_finite v | None -> false)
       (spec ~trace)

let result_json ~trace o =
  let metric (name, unit) =
    let v = match List.assoc_opt name o.metrics with Some v when Float.is_finite v -> v | _ -> 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct ~trace o) o.counts.attempted o.counts.failed
    (String.concat ", " (List.map metric (spec ~trace)))

let pin_gc () =
  (* OCaml 5.1 defaults, pinned so OCAMLRUNPARAM cannot move them *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 }

let meta_json ~workload ~seed ~seconds ~trace o =
  let gc = Gc.get () in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"jobs\": 1, \"ocaml\": %S, \
     \"gc\": {\"minor_heap_size\": %d, \"space_overhead\": %d}, \"passes\": %d, \"attempted\": %d}"
    workload seed seconds trace Sys.ocaml_version gc.Gc.minor_heap_size gc.Gc.space_overhead o.passes
    o.counts.attempted

let smoke () =
  let ok = ref true in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o = measure tiny w ~seed:1 ~seconds:0.05 ~trace in
          if not (correct ~trace o) then begin
            ok := false;
            Printf.printf "smoke %s (trace %b): %s\n" w.name trace (result_json ~trace o)
          end)
        [ false; true ])
    workloads;
  if !ok then print_endline "netbench smoke: every workload measured every metric, no pass failed"
  else exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and smoke_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of replay-day, psc-unique-ips, bus-deploy");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer traced run");
      ("--smoke", Arg.Set smoke_only, " every workload at tiny sizes, both modes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "netbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  pin_gc ();
  if !smoke_only then smoke ()
  else
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("netbench: unknown workload " ^ !workload);
      exit 2
    | Some w ->
      let trace = !trace <> 0 in
      let o = measure full w ~seed:!seed ~seconds:!seconds ~trace in
      List.iter print_endline o.report;
      print_endline ("meta " ^ meta_json ~workload:w.name ~seed:!seed ~seconds:!seconds ~trace o);
      print_endline (result_json ~trace o)
