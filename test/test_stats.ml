open Stats

let checkf = Alcotest.(check (float 1e-6))
let pp_ci fmt (ci : Ci.t) = Format.fprintf fmt "[%.6g; %.6g]" ci.Ci.lo ci.Ci.hi

(* --- special functions --- *)

let test_erf_values () =
  let erf x = 1.0 -. Special.erfc x in
  checkf "erf(0)" 0.0 (erf 0.0);
  checkf "erf(1)" 0.8427007929497149 (erf 1.0);
  checkf "erf(-1)" (-0.8427007929497149) (erf (-1.0));
  checkf "erf(2)" 0.9953222650189527 (erf 2.0);
  Alcotest.(check bool) "erf(6) ~ 1" true (Float.abs (erf 6.0 -. 1.0) < 1e-12)

let test_erfc_symmetry () =
  List.iter
    (fun x -> checkf (Printf.sprintf "erfc(%f)" x) 2.0 (Special.erfc x +. Special.erfc (-.x)))
    [ 0.1; 0.5; 1.0; 2.5 ]

let test_normal_cdf () =
  checkf "phi(0)" 0.5 (Special.normal_cdf 0.0);
  Alcotest.(check (float 1e-5)) "phi(1.96)" 0.9750021048517795
    (Special.normal_cdf 1.959963984540054);
  checkf "scaled" 0.5 (Special.normal_cdf ~mu:10.0 ~sigma:3.0 10.0)

let test_ppf_roundtrip () =
  List.iter
    (fun p -> Alcotest.(check (float 1e-8)) (string_of_float p) p (Special.normal_cdf (Special.normal_ppf p)))
    [ 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999 ]

let test_z_95 () =
  Alcotest.(check (float 1e-6)) "z(0.95)" 1.959963984540054 (Special.z_for_confidence 0.95)

(* ln Γ(x) for x >= 0.5 by Lanczos (g = 7, n = 9): the oracle that
   [Prng.Dist.log_factorial]'s table and Stirling branch are held to,
   since ln n! = ln Γ(n + 1). *)
let log_gamma x =
  let coef =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6;
       1.5056327351493116e-7 |]
  in
  let x = x -. 1.0 in
  let a = ref coef.(0) in
  let t = x +. 7.5 in
  for i = 1 to 8 do
    a := !a +. (coef.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

let test_log_gamma () =
  checkf "gamma(1)" 0.0 (log_gamma 1.0);
  checkf "gamma(5) = ln 24" (log 24.0) (log_gamma 5.0);
  checkf "gamma(0.5) = ln sqrt pi" (0.5 *. log Float.pi) (log_gamma 0.5);
  List.iter
    (fun n ->
      checkf (Printf.sprintf "ln %d!" n)
        (log_gamma (float_of_int (n + 1)))
        (Prng.Dist.log_factorial n))
    [ 0; 1; 10; 256; 257; 1_000; 100_000 ]

(* --- CIs --- *)

let test_ci_basics () =
  let ci = Ci.make 1.0 3.0 in
  checkf "width" 2.0 (Ci.width ci);
  checkf "midpoint" 2.0 (Ci.midpoint ci);
  Alcotest.(check bool) "contains" true (Ci.contains ci 2.5);
  Alcotest.(check bool) "not contains" false (Ci.contains ci 3.5);
  Alcotest.check_raises "inverted rejected" (Invalid_argument "Ci.make: lo > hi") (fun () ->
      ignore (Ci.make 3.0 1.0))

let test_ci_intersect_union () =
  let a = Ci.make 0.0 2.0 and b = Ci.make 1.0 3.0 and c = Ci.make 5.0 6.0 in
  (match Ci.intersect a b with
  | Some i ->
    checkf "inter lo" 1.0 i.Ci.lo;
    checkf "inter hi" 2.0 i.Ci.hi
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint" true (Ci.intersect a c = None);
  let u = Ci.union a c in
  checkf "union lo" 0.0 u.Ci.lo;
  checkf "union hi" 6.0 u.Ci.hi

let test_normal_ci_coverage () =
  (* empirical coverage of the 95% CI under the declared noise model *)
  let rng = Prng.Rng.create 77 in
  let truth = 1_000.0 and sigma = 50.0 in
  let n = 5_000 in
  let covered = ref 0 in
  for _ = 1 to n do
    let observed = truth +. Prng.Dist.normal rng ~mu:0.0 ~sigma in
    if Ci.contains (Ci.normal ~value:observed ~sigma ()) truth then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int n in
  Alcotest.(check bool) "coverage ~95%" true (coverage > 0.93 && coverage < 0.97)

let test_normal_ci_can_be_negative () =
  let ci = Ci.normal ~value:(-5.0) ~sigma:10.0 () in
  Alcotest.(check bool) "lower negative" true (ci.Ci.lo < 0.0)

(* --- occupancy model --- *)

let test_occupancy_small_k () =
  (* for k << m, occupancy ~ k *)
  let occ = Ci.expected_occupied ~table_size:1_000_000 100 in
  Alcotest.(check bool) "nearly k" true (Float.abs (occ -. 100.0) < 0.1)

let test_occupancy_monotone () =
  let prev = ref (-1.0) in
  for k = 0 to 50 do
    let occ = Ci.expected_occupied ~table_size:64 (k * 10) in
    Alcotest.(check bool) "monotone" true (occ > !prev);
    prev := occ
  done

let test_occupancy_inverse () =
  List.iter
    (fun k ->
      let occ = Ci.expected_occupied ~table_size:4_096 k in
      let k' = Ci.invert_occupancy ~table_size:4_096 occ in
      Alcotest.(check bool) (string_of_int k) true (Float.abs (k' -. float_of_int k) < 0.001))
    [ 0; 1; 10; 100; 1_000; 3_000 ]

let test_occupancy_saturation () =
  Alcotest.(check bool) "full table diverges" true
    (Ci.invert_occupancy ~table_size:100 100.0 = infinity)

(* --- PSC exact CI --- *)

let test_binomial_exact_ci_covers_truth () =
  (* simulate the PSC observation model end-to-end and check coverage *)
  let rng = Prng.Rng.create 99 in
  let table_size = 8_192 and flips = 2_000 and k_true = 1_500 in
  let n = 300 in
  let covered = ref 0 in
  for _ = 1 to n do
    (* occupancy of k_true distinct balls *)
    let slots = Hashtbl.create k_true in
    for _ = 1 to k_true do
      Hashtbl.replace slots (Prng.Rng.below rng table_size) ()
    done;
    let occupied = Hashtbl.length slots in
    let noise = Testkit.binomial rng ~n:flips ~p:0.5 in
    (* the protocol reports the raw nonzero count: occupied + heads *)
    let observed = occupied + noise in
    let ci = Ci.binomial_exact ~observed ~flips ~table_size () in
    if Ci.contains ci (float_of_int k_true) then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f >= 0.90" coverage)
    true (coverage >= 0.90)

let test_binomial_exact_ci_centered () =
  (* regression: the noise mean must be subtracted and the upper
     quantile search must not terminate at n — both bugs once produced
     CIs like [0; huge] around a mid-range estimate *)
  let observed = 100 + 500 and flips = 1_000 and table_size = 4_096 in
  (* occ ~ 100 after removing the mean 500 heads *)
  let ci = Ci.binomial_exact ~observed ~flips ~table_size () in
  Alcotest.(check bool)
    (Format.asprintf "lower bound sensible: %a" pp_ci ci)
    true
    (ci.Ci.lo > 40.0 && ci.Ci.lo < 101.0);
  Alcotest.(check bool)
    (Format.asprintf "upper bound sensible: %a" pp_ci ci)
    true
    (ci.Ci.hi > 101.0 && ci.Ci.hi < 180.0)

let test_binomial_quantiles_symmetric () =
  (* raw observed equal to the noise mean => true cardinality ~ 0; the
     CI must start at 0 and stay modest *)
  let ci = Ci.binomial_exact ~observed:5_000 ~flips:10_000 ~table_size:65_536 () in
  Alcotest.(check bool)
    (Format.asprintf "covers zero and stays tight: %a" pp_ci ci)
    true
    (ci.Ci.lo = 0.0 && ci.Ci.hi < 250.0)

let test_binomial_exact_ci_tightens_with_fewer_flips () =
  (* same true cardinality (~1000), different noise levels *)
  let wide = Ci.binomial_exact ~observed:(1_000 + 5_000) ~flips:10_000 ~table_size:16_384 () in
  let tight = Ci.binomial_exact ~observed:(1_000 + 50) ~flips:100 ~table_size:16_384 () in
  Alcotest.(check bool) "fewer flips tighter" true (Ci.width tight < Ci.width wide)

(* --- extrapolation --- *)

let test_extrapolate_count () =
  checkf "divide" 1_000.0 (Extrapolate.count ~fraction:0.01 10.0);
  let ci = Extrapolate.count_ci ~fraction:0.5 (Ci.make 1.0 2.0) in
  checkf "ci lo" 2.0 ci.Ci.lo;
  checkf "ci hi" 4.0 ci.Ci.hi

let test_extrapolate_unique_range () =
  let r = Extrapolate.unique_range ~fraction:0.1 50.0 in
  checkf "lower is x" 50.0 r.Ci.lo;
  checkf "upper is x/p" 500.0 r.Ci.hi

let test_extrapolate_invalid () =
  Alcotest.check_raises "zero fraction" (Invalid_argument "Extrapolate.count: bad fraction")
    (fun () -> ignore (Extrapolate.count ~fraction:0.0 1.0))

(* --- power law --- *)

let test_expected_distinct_bounds () =
  let d = Powerlaw.expected_distinct ~n:1_000 ~s:1.0 ~draws:10_000 in
  Alcotest.(check bool) "at most n" true (d <= 1_000.0);
  Alcotest.(check bool) "at least something" true (d > 100.0);
  let d0 = Powerlaw.expected_distinct ~n:1_000 ~s:1.0 ~draws:0 in
  checkf "zero draws" 0.0 d0

let test_expected_distinct_matches_simulation () =
  let rng = Prng.Rng.create 123 in
  let n = 500 and s = 1.1 and draws = 2_000 in
  let expected = Powerlaw.expected_distinct ~n ~s ~draws in
  let trials = 50 in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + Powerlaw.simulate_distinct rng ~n ~s ~draws
  done;
  let mean = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "analytic %.1f vs simulated %.1f" expected mean)
    true
    (Float.abs (expected -. mean) /. expected < 0.05)

let test_extrapolate_unique_mc () =
  let rng = Prng.Rng.create 7 in
  (* ground truth: zipf(1.0) over 10k items; we observe 10% of draws *)
  let universe = 10_000 and s = 1.0 in
  let network_draws = 100_000 in
  let observed_draws = 10_000 in
  let observed_distinct =
    int_of_float (Powerlaw.expected_distinct ~n:universe ~s ~draws:observed_draws)
  in
  let result =
    Powerlaw.extrapolate_unique rng ~universe ~observed_distinct ~observed_draws ~fraction:0.1
      ~trials:200 ()
  in
  let true_network = Powerlaw.expected_distinct ~n:universe ~s ~draws:network_draws in
  Alcotest.(check bool) "accepted some exponents" true (result.Powerlaw.accepted_exponents <> []);
  Alcotest.(check bool)
    (Printf.sprintf "network CI %s contains %.0f"
       (Format.asprintf "%a" pp_ci result.Powerlaw.network_distinct)
       true_network)
    true
    (Ci.contains result.Powerlaw.network_distinct true_network
    || Float.abs (Ci.midpoint result.Powerlaw.network_distinct -. true_network) /. true_network
       < 0.1)

(* --- guard model --- *)

let test_guard_model_forward () =
  let e = Guard_model.expected_unique ~n_selective:1_000.0 ~n_promiscuous:10.0 ~g:3 ~f:0.01 in
  (* 1000 * (1 - 0.99^3) + 10 ~ 39.7 *)
  Alcotest.(check bool) "forward model" true (Float.abs (e -. 39.7) < 0.2)

let test_guard_model_recovers_truth () =
  (* generate two synthetic measurements from the true model and invert *)
  let n_sel = 100_000.0 and n_pro = 200.0 and g = 3 in
  let f1 = 0.0042 and f2 = 0.0088 in
  let e1 = Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g ~f:f1 in
  let e2 = Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g ~f:f2 in
  let m1 = { Guard_model.fraction = f1; count_ci = Ci.make (e1 -. 20.0) (e1 +. 20.0) } in
  let m2 = { Guard_model.fraction = f2; count_ci = Ci.make (e2 -. 20.0) (e2 +. 20.0) } in
  match Guard_model.fit_promiscuous m1 m2 ~g () with
  | None -> Alcotest.fail "no fit found"
  | Some fit ->
    Alcotest.(check bool) "promiscuous covered" true
      (Ci.contains fit.Guard_model.promiscuous n_pro);
    Alcotest.(check bool) "network total covered" true
      (Ci.contains fit.Guard_model.network_ips (n_sel +. n_pro))

let test_guard_model_pure_rejected () =
  (* data generated WITH promiscuous clients is inconsistent with small
     g under the pure model — the paper's [27;34] observation *)
  let n_sel = 100_000.0 and n_pro = 400.0 in
  let f1 = 0.0042 and f2 = 0.0088 in
  let e1 = Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g:3 ~f:f1 in
  let e2 = Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g:3 ~f:f2 in
  let m1 = { Guard_model.fraction = f1; count_ci = Ci.make (e1 -. 5.0) (e1 +. 5.0) } in
  let m2 = { Guard_model.fraction = f2; count_ci = Ci.make (e2 -. 5.0) (e2 +. 5.0) } in
  match Guard_model.consistent_g_range m1 m2 () with
  | None -> () (* fully rejected is also fine *)
  | Some (lo, _) -> Alcotest.(check bool) "pure model needs implausible g" true (lo > 5)

(* --- descriptive --- *)

let test_descriptive () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  checkf "mean" 3.0 (Testkit.mean xs);
  checkf "median" 3.0 (Descriptive.quantile xs 0.5);
  checkf "variance" 2.5 (Testkit.variance xs);
  checkf "q0" 1.0 (Descriptive.quantile xs 0.0);
  checkf "q1" 5.0 (Descriptive.quantile xs 1.0)

let test_empirical_ci () =
  let xs = Array.init 1_001 (fun i -> float_of_int i) in
  let ci = Descriptive.empirical_ci xs in
  Alcotest.(check bool) "lo near 25" true (Float.abs (ci.Ci.lo -. 25.0) < 1.0);
  Alcotest.(check bool) "hi near 975" true (Float.abs (ci.Ci.hi -. 975.0) < 1.0)

let prop_ppf_monotone =
  QCheck.Test.make ~name:"normal_ppf monotone" ~count:200
    QCheck.(pair (float_range 0.01 0.98) (float_range 0.001 0.01))
    (fun (p, dp) -> Special.normal_ppf (p +. dp) > Special.normal_ppf p)

let prop_occupancy_inverse =
  QCheck.Test.make ~name:"occupancy inverse roundtrip" ~count:200
    QCheck.(pair (int_range 64 65536) (int_range 0 5000))
    (fun (m, k) ->
      let occ = Ci.expected_occupied ~table_size:m k in
      Float.abs (Ci.invert_occupancy ~table_size:m occ -. float_of_int k) < 0.01 *. float_of_int (max 1 k) +. 0.5)

let () =
  Alcotest.run "stats"
    [
      ( "special",
        [
          Alcotest.test_case "erf values" `Quick test_erf_values;
          Alcotest.test_case "erfc symmetry" `Quick test_erfc_symmetry;
          Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
          Alcotest.test_case "ppf roundtrip" `Quick test_ppf_roundtrip;
          Alcotest.test_case "z for 95%" `Quick test_z_95;
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
        ] );
      ( "ci",
        [
          Alcotest.test_case "basics" `Quick test_ci_basics;
          Alcotest.test_case "intersect/union" `Quick test_ci_intersect_union;
          Alcotest.test_case "normal coverage" `Quick test_normal_ci_coverage;
          Alcotest.test_case "negative counts" `Quick test_normal_ci_can_be_negative;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "small k" `Quick test_occupancy_small_k;
          Alcotest.test_case "monotone" `Quick test_occupancy_monotone;
          Alcotest.test_case "inverse" `Quick test_occupancy_inverse;
          Alcotest.test_case "saturation" `Quick test_occupancy_saturation;
        ] );
      ( "psc_ci",
        [
          Alcotest.test_case "coverage" `Quick test_binomial_exact_ci_covers_truth;
          Alcotest.test_case "centered (regression)" `Quick test_binomial_exact_ci_centered;
          Alcotest.test_case "quantile symmetry" `Quick test_binomial_quantiles_symmetric;
          Alcotest.test_case "flips vs width" `Quick test_binomial_exact_ci_tightens_with_fewer_flips;
        ] );
      ( "extrapolate",
        [
          Alcotest.test_case "count" `Quick test_extrapolate_count;
          Alcotest.test_case "unique range" `Quick test_extrapolate_unique_range;
          Alcotest.test_case "invalid input" `Quick test_extrapolate_invalid;
        ] );
      ( "powerlaw",
        [
          Alcotest.test_case "expected distinct bounds" `Quick test_expected_distinct_bounds;
          Alcotest.test_case "analytic vs simulation" `Quick test_expected_distinct_matches_simulation;
          Alcotest.test_case "MC extrapolation" `Quick test_extrapolate_unique_mc;
        ] );
      ( "guard_model",
        [
          Alcotest.test_case "forward" `Quick test_guard_model_forward;
          Alcotest.test_case "recovers truth" `Quick test_guard_model_recovers_truth;
          Alcotest.test_case "pure model rejected" `Quick test_guard_model_pure_rejected;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "moments/quantiles" `Quick test_descriptive;
          Alcotest.test_case "empirical ci" `Quick test_empirical_ci;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_ppf_monotone; prop_occupancy_inverse ] );
    ]
