(* The benchmark harness.

   Part 1 — reproduction: runs every table and figure of the paper and
   prints paper-vs-measured rows (the same harness as
   `tormeasure run-all`).

   Part 2 — performance: one Bechamel micro-benchmark per table/figure,
   timing the computational kernel each experiment leans on, plus the
   cryptographic primitives. Each kernel is timed with telemetry
   disabled, then run once more with telemetry enabled to capture a
   metrics snapshot; everything lands in BENCH_<unix-ts>.json so the
   perf trajectory is machine-readable run over run. *)

open Bechamel
open Toolkit

(* --- shared fixtures for the kernels --- *)

let fixture_rng = Prng.Rng.create 99
let fixture_drbg = Crypto.Drbg.create "bench"

let small_consensus =
  lazy
    (Torsim.Netgen.generate
       ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 120 }
       (Prng.Rng.create 5))

let small_engine = lazy (Torsim.Engine.create ~seed:5 (Lazy.force small_consensus))

let small_population =
  lazy
    (Workload.Population.build
       ~config:
         { Workload.Population.default with Workload.Population.selective = 200; promiscuous = 2 }
       (Lazy.force small_consensus) (Prng.Rng.create 6))

let sample_client () = (Workload.Population.clients (Lazy.force small_population)).(0)

let elgamal_key = lazy (Crypto.Elgamal.keygen fixture_drbg)

let psc_proto () =
  Psc.Protocol.create
    (Psc.Protocol.config ~table_size:1_024 ~num_cps:3 ~noise_flips_per_cp:32
       ~proof_rounds:None ~verify:false ())
    ~num_dcs:2 ~seed:9

(* --- one kernel per table/figure, as (name, thunk) so the same thunk
   feeds both the Bechamel timing run and the telemetry snapshot --- *)

let kernel_table1 =
  ( "table1/action-bound-derivation",
    fun () ->
      List.iter (fun a -> ignore (Dp.Action_bounds.bound_value a)) Dp.Action_bounds.all_actions )

let kernel_fig1 =
  ( "fig1/exit-visit-simulation",
    fun () ->
      let engine = Lazy.force small_engine in
      Torsim.Engine.exit_visit engine (sample_client ())
        ~dest:(Torsim.Event.Hostname "example.com") ~port:443 ~subsequent_streams:19
        ~bytes:1_000_000.0 () )

let kernel_fig2 =
  ( "fig2/primary-domain-classification",
    fun () ->
      ignore (Tormeasure.Exp_alexa.classify_rank "www.amazon.com");
      ignore (Tormeasure.Exp_alexa.classify_rank "onionoo.torproject.org");
      ignore (Tormeasure.Exp_alexa.classify_rank "s123456.com");
      ignore (Tormeasure.Exp_alexa.classify_family "svc7.google.com") )

let kernel_fig3 =
  ( "fig3/tld-classification",
    fun () ->
      ignore (Tormeasure.Exp_tld.classify_all "s99.co.uk");
      ignore (Tormeasure.Exp_tld.classify_alexa "www.s99.ru") )

let kernel_table2 =
  let proto = psc_proto () in
  let i = ref 0 in
  ( "table2/psc-insert",
    fun () ->
      incr i;
      Psc.Protocol.insert proto ~dc:0 (Printf.sprintf "sld%d.com" (!i land 1023)) )

let kernel_table3 =
  ( "table3/guard-model-fit",
    fun () ->
      let m1 = { Stats.Guard_model.fraction = 0.0042; count_ci = Stats.Ci.make 1_400.0 1_600.0 } in
      let m2 = { Stats.Guard_model.fraction = 0.0088; count_ci = Stats.Ci.make 2_900.0 3_200.0 } in
      ignore (Stats.Guard_model.fit_promiscuous m1 m2 ~g:3 ~steps:100 ()) )

let kernel_table4 =
  ( "table4/client-day-simulation",
    fun () ->
      Workload.Behavior.run_client_day (Lazy.force small_engine) Workload.Behavior.default
        (sample_client ()) fixture_rng )

let kernel_table5 =
  ( "table5/psc-pipeline-1k",
    fun () ->
      let proto = psc_proto () in
      for i = 0 to 99 do
        Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "ip:%d" i)
      done;
      ignore (Psc.Protocol.run proto) )

let kernel_fig4 = ("fig4/geo-sampling", fun () -> ignore (Workload.Geo.sample fixture_rng))

let kernel_table6 =
  let i = ref 0 in
  ( "table6/hsdir-ring-lookup",
    fun () ->
      let ring = Torsim.Engine.hsdir_ring (Lazy.force small_engine) in
      incr i;
      ignore (Torsim.Hsdir_ring.responsible ring (Torsim.Onion.bogus_address !i)) )

let kernel_table7 =
  ( "table7/descriptor-fetch-simulation",
    fun () ->
      let engine = Lazy.force small_engine in
      Torsim.Engine.fetch_descriptor engine ~address:(Torsim.Onion.bogus_address 42) )

let kernel_table8 =
  ( "table8/rendezvous-simulation",
    fun () ->
      Torsim.Engine.rendezvous (Lazy.force small_engine)
        ~outcome:(Torsim.Event.Rend_success { cells = 1_500 }) )

let kernel_users =
  let baseline = Baseline.Metrics_portal.create () in
  ( "users/metrics-portal-estimate",
    fun () ->
      ignore (Baseline.Metrics_portal.estimated_daily_users baseline (Lazy.force small_engine)) )

(* --- cryptographic primitives --- *)

let kernel_sha256 =
  let block = String.make 1_024 'x' in
  ("crypto/sha256-1KiB", fun () -> ignore (Crypto.Sha256.digest block))

(* 256 exponentiations per run so the per-run cost dwarfs harness
   overhead; the exponents sweep the full width of Z_q. *)
let kernel_pow_g =
  let es = Array.init 256 (fun i -> Crypto.Group.exp_of_int ((i * 4_194_301) + 7)) in
  ( "crypto/pow-g-x256",
    fun () -> Array.iter (fun e -> ignore (Crypto.Group.pow_g e)) es )

let kernel_elgamal =
  ( "crypto/elgamal-encrypt",
    fun () ->
      let _, pk = Lazy.force elgamal_key in
      ignore (Crypto.Elgamal.encrypt fixture_drbg pk Crypto.Elgamal.marker) )

let shuffle_cts () =
  let _, pk = Lazy.force elgamal_key in
  (pk, Array.init 64 (fun _ -> Crypto.Elgamal.encrypt fixture_drbg pk Crypto.Elgamal.one))

let kernel_shuffle =
  let pk, cts = shuffle_cts () in
  ("crypto/shuffle-64-proven", fun () -> ignore (Crypto.Shuffle.shuffle ~rounds:4 fixture_drbg pk cts))

(* Batched proof verification: 256 proven noise bits under one key
   checked as two folded multi-exponentiations plus the per-proof
   Fiat–Shamir hashes — the per-message verification unit of the bus
   deployment. *)
let batch_bits =
  lazy
    (let _, pk = Lazy.force elgamal_key in
     let tab = Crypto.Group.precomp pk in
     let drbg = Crypto.Drbg.create "bench-batch" in
     let pairs = Array.make 256 (Crypto.Bit_proof.encrypt_bit_proven drbg ~pk false) in
     for i = 1 to 255 do
       pairs.(i) <- Crypto.Bit_proof.encrypt_bit_proven drbg ~pk (i land 1 = 1)
     done;
     (pk, tab, pairs))

let kernel_batch_verify =
  ( "crypto/batch-verify-256",
    fun () ->
      let pk, tab, pairs = Lazy.force batch_bits in
      match Crypto.Bit_proof.verify_batch ~pk_tab:tab ~pk pairs with
      | Crypto.Batch_verify.Accepted -> ()
      | Crypto.Batch_verify.Rejected _ -> failwith "bench: honest batch rejected" )

(* cost scaling in the number of computation parties: each CP adds a
   shuffle + rerandomize + decrypt pass over the vector *)
let psc_with_cps num_cps =
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:512 ~num_cps ~noise_flips_per_cp:16
         ~proof_rounds:None ~verify:false ())
      ~num_dcs:2 ~seed:9
  in
  for i = 0 to 63 do
    Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "ip:%d" i)
  done;
  ignore (Psc.Protocol.run proto)

let kernel_psc_2cps = ("scaling/psc-512-slots-2cps", fun () -> psc_with_cps 2)
let kernel_psc_5cps = ("scaling/psc-512-slots-5cps", fun () -> psc_with_cps 5)

(* Table 2/5 scale: the full oblivious-counter pipeline over a 16k-slot
   table — the end-to-end number the crypto-kernel work is judged on. *)
let kernel_psc_16k =
  ( "scaling/psc-16384-run",
    fun () ->
      let proto =
        Psc.Protocol.create
          (Psc.Protocol.config ~table_size:16_384 ~num_cps:3 ~noise_flips_per_cp:64
             ~proof_rounds:None ~verify:false ())
          ~num_dcs:2 ~seed:11
      in
      for i = 0 to 999 do
        Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "item:%d" i)
      done;
      ignore (Psc.Protocol.run proto) )

let kernel_shuffle_proof_rounds =
  let pk, cts = shuffle_cts () in
  ( "scaling/shuffle-64-rounds16",
    fun () -> ignore (Crypto.Shuffle.shuffle ~rounds:16 fixture_drbg pk cts) )

(* Million-slot round with proofs ON: noise bit proofs, 2-round shuffle
   arguments and verifiable decryption over a 2^20-slot table. One
   iteration is a whole round, so this tracks wall-clock at deployment
   scale; the committed BENCH json is the record that it completes. *)
let kernel_psc_1m =
  ( "scaling/psc-1M-run",
    fun () ->
      let proto =
        Psc.Protocol.create
          (Psc.Protocol.config ~table_size:1_048_576 ~num_cps:3 ~noise_flips_per_cp:64
             ~proof_rounds:(Some 2) ~verify:true ())
          ~num_dcs:2 ~seed:13
      in
      for i = 0 to 2_047 do
        Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "item:%d" i)
      done;
      let r = Psc.Protocol.run proto in
      if not r.Psc.Protocol.proofs_ok then failwith "bench: psc-1M proofs rejected" )

(* --- whole-network ingestion throughput --- *)

(* A sharded ~100k-event network day: every client's daily behaviour
   plus exit visits, every relay observation through the counter
   ingestion path, shards merged in order (bit-identical at any
   --jobs). Tracks events/sec for the whole system, not a crypto
   kernel: ns_per_run / 1e5 ~= ns per ingested event. *)
let netday_config =
  { Tormeasure.Netday.default with Tormeasure.Netday.clients = 550; shards = 8; relays = 120 }

let kernel_netday =
  ("scaling/network-day-100k", fun () -> ignore (Tormeasure.Netday.run ~config:netday_config ~seed:3 ()))

(* Pure ingestion replay over the binary trace format: a fixed
   synthetic event mixture (connections, circuits, bytes, exit streams
   over a 512-hostname pool) is sealed into lib/trace segments ONCE,
   lazily, outside every timed region; the kernels then decode + ingest
   from the segment bytes. This changed semantics vs earlier snapshots:
   ingest-replay-100k used to iterate a pre-boxed event array, now it
   measures the record/replay path — varint-delta decode into a reused
   view plus dispatch + classification + counter update, with no event
   construction or allocation in the loop. *)
let ingest_hosts =
  Array.init 512 (fun i ->
      match i land 3 with
      | 0 -> Printf.sprintf "www.s%d.com" i
      | 1 -> Printf.sprintf "s%d.co.uk" i
      | 2 -> Printf.sprintf "cdn%d.t%d.com" (i land 31) (i lsr 5)
      | _ -> Printf.sprintf "host%d.internal" i)

let make_ingest_trace n =
  Array.init n (fun i ->
      match i mod 8 with
      | 0 -> Torsim.Event.Client_connection { client_ip = i; country = "US"; asn = 7922 }
      | 1 | 2 ->
        Torsim.Event.Client_circuit
          { client_ip = i; country = "DE"; asn = 3320; kind = Torsim.Event.Data_circuit }
      | 3 ->
        Torsim.Event.Entry_bytes
          { client_ip = i; country = "FR"; asn = 3215; bytes = float_of_int ((i land 1023) * 4096) }
      | 4 ->
        Torsim.Event.Exit_stream
          { kind = Torsim.Event.Subsequent; dest = Torsim.Event.Hostname ingest_hosts.(i land 511); port = 443 }
      | _ ->
        Torsim.Event.Exit_stream
          {
            kind = Torsim.Event.Initial;
            dest = Torsim.Event.Hostname ingest_hosts.(i * 7 land 511);
            port = (if i land 15 = 0 then 22 else 443);
          })

let seal_ingest_segments ~shards events =
  let n = Array.length events in
  Array.init shards (fun s ->
      let lo = s * n / shards and hi = (s + 1) * n / shards in
      let w =
        Evtrace.Writer.create
          { Evtrace.seed = 17; shard = s; shards; config = [ ("events", n) ] }
      in
      for i = lo to hi - 1 do
        Evtrace.Writer.event w events.(i)
      done;
      match Evtrace.Segment.decode (Evtrace.Writer.finish w ~tallies:[]) with
      | Ok seg -> seg
      | Error e -> failwith (Evtrace.error_to_string e))

let ingest_segments_100k = lazy (seal_ingest_segments ~shards:1 (make_ingest_trace 100_000))
let ingest_segments_1m = lazy (seal_ingest_segments ~shards:4 (make_ingest_trace 1_000_000))

let ingest_counters =
  [ "conns"; "circs"; "bytes_mib"; "streams"; "streams:web"; "sld:known"; "sld:unknown";
    "tld:com"; "tld:other" ]

(* The 100k kernel keeps the original deployment sink — decoded views
   feed Privcount.Deployment.sink_for directly. Hostname classification
   is resolved per interned host id when the fixture is forced, so the
   timed loop never hashes a hostname (same Workload.Suffix functions,
   identical counts). *)
let ingest_view_sink =
  lazy
    (let seg = (Lazy.force ingest_segments_100k).(0) in
     let deployment =
       Privcount.Deployment.create
         (Privcount.Deployment.config ~split_budget:false
            (List.map (fun name -> Privcount.Counter.spec ~name ~sensitivity:1.0) ingest_counters))
         ~num_dcs:1 ~seed:17
     in
     let id = Privcount.Deployment.counter_id deployment in
     let c_conns = id "conns" and c_circs = id "circs" and c_bytes = id "bytes_mib" in
     let c_streams = id "streams" and c_web = id "streams:web" in
     let c_known = id "sld:known" and c_unknown = id "sld:unknown" in
     let c_com = id "tld:com" and c_other = id "tld:other" in
     let hosts = seg.Evtrace.Segment.hosts in
     let known = Bytes.create (Array.length hosts) in
     let com = Bytes.create (Array.length hosts) in
     Array.iteri
       (fun i h ->
         Bytes.set known i
           (match Workload.Suffix.registered_domain h with Some _ -> '\001' | None -> '\000');
         Bytes.set com i
           (match Workload.Suffix.top_level_domain h with Some "com" -> '\001' | _ -> '\000'))
       hosts;
     Privcount.Deployment.sink_for deployment ~dc:0 (fun emit (v : Evtrace.View.t) ->
         match v.Evtrace.View.kind with
         | Evtrace.View.Connection -> emit c_conns 1
         | Circuit_data | Circuit_directory -> emit c_circs 1
         | Entry_bytes -> emit c_bytes (int_of_float (v.vol.value /. 1_048_576.0))
         | Stream_subsequent -> emit c_streams 1
         | Stream_initial ->
           emit c_streams 1;
           let h = v.host in
           if h >= 0 then begin
             if Torsim.Event.is_web_port v.port then emit c_web 1;
             emit (if Bytes.unsafe_get known h = '\001' then c_known else c_unknown) 1;
             emit (if Bytes.unsafe_get com h = '\001' then c_com else c_other) 1
           end
         | Directory_request | Exit_bytes | Descriptor_published | Descriptor_fetch
         | Rendezvous -> ()))

let kernel_ingest =
  ( "scaling/ingest-replay-100k",
    fun () ->
      let sink = Lazy.force ingest_view_sink in
      match Evtrace.iter (Lazy.force ingest_segments_100k).(0) sink with
      | Ok _ -> ()
      | Error e -> failwith (Evtrace.error_to_string e) )

(* The full replay subsystem (netday counter family, shard pool,
   in-order merge) over a sealed 4-shard, 1M-event recording; the 100M
   kernel pushes the same segments through ingestion 100 times, so the
   decode cost is paid on every pass exactly as when replaying a 100M
   event recording from disk. *)
let kernel_replay_1m =
  ( "scaling/replay-1M",
    fun () -> ignore (Tormeasure.Netday.replay (Lazy.force ingest_segments_1m)) )

let kernel_replay_100m =
  ( "scaling/replay-100M",
    fun () -> ignore (Tormeasure.Netday.replay ~repeat:100 (Lazy.force ingest_segments_1m)) )

let kernel_gaussian =
  ( "dp/gaussian-mechanism",
    fun () ->
      ignore
        (Dp.Mechanism.gaussian_mechanism fixture_rng Dp.Mechanism.paper_params ~sensitivity:20.0
           1_000.0) )

(* Static analysis over the repo's own sources: parse every lib/ and
   bin/ file, run the per-file rules, build the cross-module call
   graph and run the interprocedural passes. Tracks the cost of the
   `make lint` CI gate. Only meaningful from the repo root (where
   torlint.config lives); elsewhere it is a no-op. *)
(* Raw bus throughput: a 4-party token ring where every delivery
   decrements a ttl and forwards, so ~10k envelopes flow through the
   seeded scheduler (inbox jitter, claim dispatch, order recording) in
   one run. Tracks the per-message overhead the deployment runtime
   adds on top of the pipeline handlers. *)
let kernel_bus_deliver =
  ( "bus/deliver-10k",
    fun () ->
      let s = Bus.Sched.create ~seed:17 () in
      for i = 0 to 3 do
        Bus.Sched.register s (Bus.Party.Dc i) (fun env ->
            let ttl = int_of_string env.Bus.Envelope.body in
            if ttl > 0 then
              Bus.Sched.post s ~epoch:0 ~src:(Bus.Party.Dc i)
                ~dst:(Bus.Party.Dc ((i + 1) mod 4))
                ~kind:"tok"
                ~body:(string_of_int (ttl - 1));
            true)
      done;
      for i = 0 to 3 do
        Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc i) ~kind:"tok"
          ~body:"2499"
      done;
      ignore (Bus.Sched.run s) )

let kernel_lint =
  ( "tooling/torlint-interprocedural",
    fun () ->
      if Sys.file_exists "torlint.config" then
        match Lint.Config.load "torlint.config" with
        | Error _ -> ()
        | Ok cfg -> ignore (Lint.Engine.lint_paths cfg [ "lib"; "bin" ]) )

let all_kernels =
  [
    kernel_table1; kernel_fig1; kernel_fig2; kernel_fig3; kernel_table2; kernel_table3;
    kernel_table4; kernel_table5; kernel_fig4; kernel_table6; kernel_table7; kernel_table8;
    kernel_users; kernel_sha256; kernel_pow_g; kernel_elgamal; kernel_shuffle;
    kernel_batch_verify; kernel_gaussian;
    kernel_psc_2cps; kernel_psc_5cps; kernel_shuffle_proof_rounds; kernel_psc_16k;
    kernel_psc_1m; kernel_netday; kernel_ingest; kernel_replay_1m; kernel_replay_100m;
    kernel_bus_deliver; kernel_lint;
  ]

(* One post-timing run with telemetry on: what did this kernel touch?
   The timed loop itself runs with telemetry off, so the ns/run numbers
   never include instrumentation overhead. The same pass audits the
   kernel's run ledger — a failed proof or budget overspend in a bench
   configuration is a bug worth shouting about, not a timing detail. *)
let kernel_snapshot name fn =
  Obs.set_enabled true;
  Obs.reset ();
  let snapshot =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        fn ();
        let a = Obs.Ledger.audit (Obs.Ledger.events ()) in
        if not a.Obs.Ledger.ok then
          Printf.printf "  %-40s LEDGER AUDIT FAILED: %s\n%!" name
            (String.concat "; " a.Obs.Ledger.violations);
        Obs.Metrics.snapshot ())
  in
  snapshot

let run_perf () =
  Printf.printf "\n=== Part 2: Bechamel micro-benchmarks (one kernel per table/figure) ===\n%!";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1_000 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  List.map
    (fun (name, fn) ->
      let test = Test.make ~name (Staged.stage fn) in
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let ns_per_run = ref None in
      Hashtbl.iter
        (fun printed_name raw ->
          match Analyze.OLS.estimates (Analyze.one ols instance raw) with
          | Some [ ns ] ->
            ns_per_run := Some ns;
            Printf.printf "  %-40s %12.1f ns/run\n%!" printed_name ns
          | Some _ | None -> Printf.printf "  %-40s (no estimate)\n%!" printed_name)
        results;
      (name, !ns_per_run, kernel_snapshot name fn))
    all_kernels

let json_escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let write_bench_json results =
  let path = Printf.sprintf "BENCH_%d.json" (int_of_float (Unix.time ())) in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"timestamp\": %d,\n" (int_of_float (Unix.time ())));
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i (name, ns, snapshot) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"ns_per_run\": %s, \"metrics\": %s}%s\n"
           (json_escape name)
           (match ns with None -> "null" | Some ns -> Printf.sprintf "%.1f" ns)
           (Obs.Export.snapshot_json snapshot)
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ]\n}\n";
  Obs.Export.write_file path (Buffer.contents b);
  Printf.printf "\nwrote machine-readable results to %s\n%!" path

let run_reproduction seed =
  Printf.printf "=== Part 1: reproduction of every table and figure ===\n%!";
  let reports = Tormeasure.Registry.run_all ~seed () in
  let ok = List.filter Tormeasure.Report.all_ok reports in
  Printf.printf "\n%d/%d experiments fully within shape tolerances\n%!" (List.length ok)
    (List.length reports)

let run_ablations () =
  Printf.printf "\n=== Part 3: ablations of the methodology's design choices ===\n%!";
  List.iter Tormeasure.Report.print (Tormeasure.Ablations.all ())

let () =
  let args = Array.to_list Sys.argv in
  let perf_only = List.mem "--perf-only" args in
  let repro_only = List.mem "--repro-only" args in
  (* --jobs N: domain pool size for the parallel kernels (results are
     bit-identical at any value; only the timings change) *)
  let rec jobs_of = function
    | "--jobs" :: n :: _ -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
        prerr_endline "--jobs expects a positive integer";
        exit 1)
    | _ :: rest -> jobs_of rest
    | [] -> None
  in
  (match jobs_of args with None -> () | Some n -> Parallel.set_jobs n);
  (* --smoke NAME: run one kernel exactly once (no timing loop) and
     exit — CI uses this for the 2^20-slot PSC run, where a bechamel
     quota would repeat a ~minute-long round *)
  let rec smoke_of = function
    | "--smoke" :: name :: _ -> Some name
    | _ :: rest -> smoke_of rest
    | [] -> None
  in
  (match smoke_of args with
  | None -> ()
  | Some name -> (
    match List.assoc_opt name all_kernels with
    | None ->
      Printf.eprintf "unknown kernel %S; known: %s\n" name
        (String.concat ", " (List.map fst all_kernels));
      exit 1
    | Some fn ->
      let t0 = Unix.gettimeofday () in
      fn ();
      Printf.printf "smoke %s ok in %.1fs (jobs=%d)\n%!" name
        (Unix.gettimeofday () -. t0)
        (Parallel.jobs ());
      exit 0));
  let seed = 1 in
  if not perf_only then run_reproduction seed;
  if not repro_only then begin
    let results = run_perf () in
    write_bench_json results
  end;
  if not (perf_only || repro_only) then run_ablations ()
