open Dp

(* --- action bounds (Table 1 derivation) --- *)

let test_bounds_match_paper () =
  List.iter
    (fun (action, paper_bound, _activity) ->
      Alcotest.(check (float 0.0))
        (Action_bounds.action_name action)
        paper_bound
        (Action_bounds.bound_value action))
    Action_bounds.paper_table

let test_defining_activities () =
  List.iter
    (fun (action, bound, paper_activity) ->
      (* the paper's defining activity must achieve the bound *)
      Alcotest.(check (float 0.0))
        (Action_bounds.action_name action)
        bound
        (Action_bounds.lookup paper_activity action))
    Action_bounds.paper_table

let test_bounds_cover_all_actions () =
  List.iter
    (fun action ->
      if Action_bounds.bound_value action <= 0.0 then
        Alcotest.fail (Action_bounds.action_name action ^ " has no positive bound"))
    Action_bounds.all_actions

(* --- gaussian mechanism --- *)

let test_sigma_formula () =
  let params = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  let sigma = Mechanism.gaussian_sigma params ~sensitivity:20.0 in
  let expected = 20.0 *. sqrt (2.0 *. log (1.25 /. 1e-11)) /. 0.3 in
  Alcotest.(check (float 1e-9)) "sigma" expected sigma

let test_sigma_scales_linearly () =
  let params = Mechanism.paper_params in
  let s1 = Mechanism.gaussian_sigma params ~sensitivity:1.0 in
  let s10 = Mechanism.gaussian_sigma params ~sensitivity:10.0 in
  Alcotest.(check (float 1e-9)) "linear in sensitivity" (10.0 *. s1) s10

let test_epsilon_roundtrip () =
  let params = Mechanism.{ epsilon = 0.5; delta = 1e-9 } in
  let sigma = Mechanism.gaussian_sigma params ~sensitivity:3.0 in
  Alcotest.(check (float 1e-9)) "epsilon recovered" 0.5
    (Mechanism.epsilon_consumed ~sigma ~sensitivity:3.0 ~delta:1e-9)

let test_mechanism_noise_distribution () =
  let rng = Prng.Rng.create 5 in
  let params = Mechanism.{ epsilon = 1.0; delta = 1e-6 } in
  let n = 20_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  let sigma = ref 0.0 in
  for _ = 1 to n do
    let noisy, s = Mechanism.gaussian_mechanism rng params ~sensitivity:1.0 100.0 in
    sigma := s;
    let noise = noisy -. 100.0 in
    sum := !sum +. noise;
    sumsq := !sumsq +. (noise *. noise)
  done;
  let mean = !sum /. float_of_int n in
  let sd = sqrt (!sumsq /. float_of_int n) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05 *. !sigma);
  Alcotest.(check bool) "sd near sigma" true (Float.abs (sd -. !sigma) /. !sigma < 0.05)

let test_invalid_params_rejected () =
  Alcotest.check_raises "eps<=0" (Invalid_argument "Mechanism: epsilon must be positive")
    (fun () ->
      ignore (Mechanism.gaussian_sigma Mechanism.{ epsilon = 0.0; delta = 0.5 } ~sensitivity:1.0));
  Alcotest.check_raises "delta>=1" (Invalid_argument "Mechanism: delta must be in (0,1)")
    (fun () ->
      ignore (Mechanism.gaussian_sigma Mechanism.{ epsilon = 1.0; delta = 1.0 } ~sensitivity:1.0))

let test_binomial_n () =
  let params = Mechanism.paper_params in
  let n1 = Mechanism.binomial_n_for params ~sensitivity:1.0 in
  let n2 = Mechanism.binomial_n_for params ~sensitivity:2.0 in
  Alcotest.(check bool) "positive" true (n1 > 0);
  (* quadratic in sensitivity *)
  Alcotest.(check bool) "quadratic" true (abs (n2 - (4 * n1)) <= 4)

let test_laplace_scale () =
  Alcotest.(check (float 1e-9)) "b = delta/eps" 66.666666666666671
    (Mechanism.laplace_scale ~epsilon:0.3 ~sensitivity:20.0)

let test_laplace_distribution () =
  let rng = Prng.Rng.create 7 in
  let scale = 10.0 in
  let n = 100_000 in
  let sum = ref 0.0 and sum_abs = ref 0.0 in
  for _ = 1 to n do
    let x = Mechanism.laplace_noise rng ~scale in
    sum := !sum +. x;
    sum_abs := !sum_abs +. Float.abs x
  done;
  (* E[X] = 0, E[|X|] = b *)
  Alcotest.(check bool) "mean ~0" true (Float.abs (!sum /. float_of_int n) < 0.3);
  Alcotest.(check bool) "mean |X| ~b" true
    (Float.abs ((!sum_abs /. float_of_int n) -. scale) < 0.3)

(* --- composition --- *)

let test_composition_basic () =
  let p = Mechanism.{ epsilon = 0.1; delta = 1e-12 } in
  let total = Composition.basic p ~rounds:10 in
  Alcotest.(check (float 1e-9)) "eps" 1.0 total.Mechanism.epsilon

let test_composition_advanced_beats_basic_eventually () =
  let p = Mechanism.{ epsilon = 0.05; delta = 1e-12 } in
  let basic = Composition.basic p ~rounds:400 in
  let advanced = Composition.advanced p ~rounds:400 ~delta_slack:1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "advanced %.2f < basic %.2f at 400 rounds" advanced.Mechanism.epsilon
       basic.Mechanism.epsilon)
    true
    (advanced.Mechanism.epsilon < basic.Mechanism.epsilon);
  (* and loses for very few rounds *)
  let b1 = Composition.basic p ~rounds:2 in
  let a1 = Composition.advanced p ~rounds:2 ~delta_slack:1e-9 in
  Alcotest.(check bool) "basic wins at 2 rounds" true
    (b1.Mechanism.epsilon < a1.Mechanism.epsilon)

let test_composition_best () =
  let p = Mechanism.{ epsilon = 0.05; delta = 1e-12 } in
  List.iter
    (fun rounds ->
      let b = Composition.best p ~rounds ~delta_slack:1e-9 in
      let basic = Composition.basic p ~rounds in
      let adv = Composition.advanced p ~rounds ~delta_slack:1e-9 in
      Alcotest.(check (float 1e-12)) "min of the two"
        (Float.min basic.Mechanism.epsilon adv.Mechanism.epsilon)
        b.Mechanism.epsilon)
    [ 1; 10; 100; 1_000 ]

let test_rounds_within_budget () =
  let per_round = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  let budget = Mechanism.{ epsilon = 3.0; delta = 1e-6 } in
  let k = Composition.rounds_within_budget ~per_round ~budget ~delta_slack:1e-8 in
  Alcotest.(check bool) (Printf.sprintf "fits %d rounds" k) true (k >= 10);
  let total = Composition.best per_round ~rounds:k ~delta_slack:1e-8 in
  Alcotest.(check bool) "within budget" true (total.Mechanism.epsilon <= 3.0);
  let over = Composition.best per_round ~rounds:(k + 1) ~delta_slack:1e-8 in
  Alcotest.(check bool) "k+1 exceeds" true (over.Mechanism.epsilon > 3.0)

let test_rounds_zero_when_budget_too_small () =
  let per_round = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  let budget = Mechanism.{ epsilon = 0.1; delta = 1e-6 } in
  Alcotest.(check int) "no rounds fit" 0
    (Composition.rounds_within_budget ~per_round ~budget ~delta_slack:1e-8)

(* --- budget --- *)

let test_budget_split () =
  let params = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  let alloc = Budget.split params ~counters:3 in
  Alcotest.(check (float 1e-12)) "eps third" 0.1 alloc.Budget.per_counter.Mechanism.epsilon;
  Alcotest.(check bool) "delta third" true
    (Float.abs (alloc.Budget.per_counter.Mechanism.delta -. (1e-11 /. 3.0)) < 1e-20)

let test_budget_compose () =
  let p = Mechanism.{ epsilon = 0.1; delta = 1e-12 } in
  let total = Budget.compose [ p; p; p ] in
  Alcotest.(check (float 1e-12)) "eps adds" 0.3 total.Mechanism.epsilon

let test_budget_split_then_compose_identity () =
  let params = Mechanism.{ epsilon = 0.3; delta = 9e-12 } in
  let alloc = Budget.split params ~counters:9 in
  let recomposed = Budget.compose (List.init 9 (fun _ -> alloc.Budget.per_counter)) in
  Alcotest.(check (float 1e-9)) "eps identity" params.Mechanism.epsilon recomposed.Mechanism.epsilon

let test_budget_weighted () =
  let params = Mechanism.{ epsilon = 1.0; delta = 1e-10 } in
  match Budget.split_weighted params ~weights:[ 1.0; 3.0 ] with
  | [ a; b ] ->
    Alcotest.(check (float 1e-9)) "quarter" 0.25 a.Mechanism.epsilon;
    Alcotest.(check (float 1e-9)) "three quarters" 0.75 b.Mechanism.epsilon
  | _ -> Alcotest.fail "expected two allocations"

(* --- accountant --- *)

let test_accountant_rejects_overlap () =
  let acc = Accountant.create () in
  let params = Mechanism.paper_params in
  Accountant.register acc ~start_hour:0 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"streams" ~params;
  Alcotest.(check bool) "overlap raises" true
    (try
       Accountant.register acc ~start_hour:12 ~duration_hours:24 ~system:Accountant.PSC
         ~statistic:"ips" ~params;
       false
     with Accountant.Schedule_violation _ -> true)

let test_accountant_enforces_gap () =
  let acc = Accountant.create () in
  let params = Mechanism.paper_params in
  Accountant.register acc ~start_hour:0 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"streams" ~params;
  Alcotest.(check bool) "short gap raises" true
    (try
       Accountant.register acc ~start_hour:30 ~duration_hours:24 ~system:Accountant.PrivCount
         ~statistic:"domains" ~params;
       false
     with Accountant.Schedule_violation _ -> true);
  (* a 24h gap is allowed *)
  Accountant.register acc ~start_hour:48 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"domains" ~params;
  Alcotest.(check int) "two registered" 2 (List.length (Accountant.records acc))

let test_accountant_repeat_same_statistic () =
  (* repeating the same statistic back-to-back is allowed (PrivCount's
     repeatable phases) as long as periods don't overlap *)
  let acc = Accountant.create () in
  let params = Mechanism.paper_params in
  Accountant.register acc ~start_hour:0 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"streams" ~params;
  Accountant.register acc ~start_hour:24 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"streams" ~params;
  Alcotest.(check int) "both registered" 2 (List.length (Accountant.records acc))

let test_accountant_total_spend () =
  let acc = Accountant.create () in
  let params = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  Accountant.register acc ~start_hour:0 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"a" ~params;
  Accountant.register acc ~start_hour:48 ~duration_hours:24 ~system:Accountant.PSC
    ~statistic:"b" ~params;
  let total = Accountant.total_spend acc in
  Alcotest.(check (float 1e-9)) "total eps" 0.6 total.Mechanism.epsilon

let test_accountant_window_spend () =
  let acc = Accountant.create () in
  let params = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
  Accountant.register acc ~start_hour:0 ~duration_hours:24 ~system:Accountant.PrivCount
    ~statistic:"a" ~params;
  Accountant.register acc ~start_hour:48 ~duration_hours:24 ~system:Accountant.PSC
    ~statistic:"b" ~params;
  let w = Accountant.window_spend acc ~window_start:0 in
  Alcotest.(check (float 1e-9)) "single window spend" 0.3 w.Mechanism.epsilon

let prop_split_never_exceeds_budget =
  QCheck.Test.make ~name:"split then compose <= budget" ~count:200
    QCheck.(int_range 1 50)
    (fun counters ->
      let params = Mechanism.{ epsilon = 0.3; delta = 1e-11 } in
      let alloc = Budget.split params ~counters in
      let total = Budget.compose (List.init counters (fun _ -> alloc.Budget.per_counter)) in
      total.Mechanism.epsilon <= params.Mechanism.epsilon +. 1e-9
      && total.Mechanism.delta <= params.Mechanism.delta +. 1e-20)

let () =
  Alcotest.run "dp"
    [
      ( "action_bounds",
        [
          Alcotest.test_case "match paper table" `Quick test_bounds_match_paper;
          Alcotest.test_case "defining activities" `Quick test_defining_activities;
          Alcotest.test_case "all actions bounded" `Quick test_bounds_cover_all_actions;
        ] );
      ( "mechanism",
        [
          Alcotest.test_case "sigma formula" `Quick test_sigma_formula;
          Alcotest.test_case "sigma linear" `Quick test_sigma_scales_linearly;
          Alcotest.test_case "epsilon roundtrip" `Quick test_epsilon_roundtrip;
          Alcotest.test_case "noise distribution" `Quick test_mechanism_noise_distribution;
          Alcotest.test_case "invalid params" `Quick test_invalid_params_rejected;
          Alcotest.test_case "binomial n" `Quick test_binomial_n;
          Alcotest.test_case "laplace scale" `Quick test_laplace_scale;
          Alcotest.test_case "laplace distribution" `Quick test_laplace_distribution;
        ] );
      ( "composition",
        [
          Alcotest.test_case "basic" `Quick test_composition_basic;
          Alcotest.test_case "advanced vs basic" `Quick test_composition_advanced_beats_basic_eventually;
          Alcotest.test_case "best" `Quick test_composition_best;
          Alcotest.test_case "rounds within budget" `Quick test_rounds_within_budget;
          Alcotest.test_case "tiny budget" `Quick test_rounds_zero_when_budget_too_small;
        ] );
      ( "budget",
        [
          Alcotest.test_case "split" `Quick test_budget_split;
          Alcotest.test_case "compose" `Quick test_budget_compose;
          Alcotest.test_case "split/compose identity" `Quick test_budget_split_then_compose_identity;
          Alcotest.test_case "weighted" `Quick test_budget_weighted;
        ] );
      ( "accountant",
        [
          Alcotest.test_case "rejects overlap" `Quick test_accountant_rejects_overlap;
          Alcotest.test_case "enforces 24h gap" `Quick test_accountant_enforces_gap;
          Alcotest.test_case "repeat same statistic" `Quick test_accountant_repeat_same_statistic;
          Alcotest.test_case "total spend" `Quick test_accountant_total_spend;
          Alcotest.test_case "window spend" `Quick test_accountant_window_spend;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_split_never_exceeds_budget ]);
    ]
