let check_float = Alcotest.(check (float 1e-9))

(* --- determinism and stream independence --- *)

let test_determinism () =
  let a = Prng.Rng.create 42 and b = Prng.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Prng.Rng.float a) (Prng.Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Prng.Rng.create 1 and b = Prng.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.float a = Prng.Rng.float b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

(* --- uniformity --- *)

let test_below_range () =
  let rng = Prng.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.below rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "below out of range"
  done

let test_below_uniform () =
  let rng = Prng.Rng.create 13 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.Rng.below rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = float_of_int n /. 10.0 in
      if abs_float (float_of_int c -. expected) > 5.0 *. sqrt expected then
        Alcotest.fail "bucket count outside 5 sigma")
    counts

let test_float_bounds () =
  let rng = Prng.Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Prng.Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float outside [0,1)"
  done

let test_permutation () =
  let rng = Prng.Rng.create 21 in
  let p = Prng.Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* --- distribution moments --- *)

let mean_of f n rng =
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. f rng
  done;
  !sum /. float_of_int n

let test_normal_moments () =
  let rng = Prng.Rng.create 31 in
  let n = 200_000 in
  let sum = ref 0.0 and sumsq = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.Dist.normal rng ~mu:5.0 ~sigma:2.0 in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.0) < 0.05);
  Alcotest.(check bool) "var near 4" true (abs_float (var -. 4.0) < 0.15)

let test_exponential_mean () =
  let rng = Prng.Rng.create 37 in
  let mean = mean_of (fun r -> Prng.Dist.exponential r ~rate:0.5) 100_000 rng in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.05)

let test_poisson_mean_small () =
  let rng = Prng.Rng.create 41 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.poisson r ~lambda:3.5)) 100_000 rng in
  Alcotest.(check bool) "mean near 3.5" true (abs_float (mean -. 3.5) < 0.05)

let test_poisson_mean_large () =
  let rng = Prng.Rng.create 43 in
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.poisson r ~lambda:500.0)) 20_000 rng in
  Alcotest.(check bool) "mean near 500" true (abs_float (mean -. 500.0) < 2.0)

let test_binomial_exact_small () =
  let rng = Prng.Rng.create 47 in
  let mean = mean_of (fun r -> float_of_int (Testkit.binomial r ~n:20 ~p:0.3)) 100_000 rng in
  Alcotest.(check bool) "mean near 6" true (abs_float (mean -. 6.0) < 0.05)

let test_binomial_large () =
  let rng = Prng.Rng.create 53 in
  let mean = mean_of (fun r -> float_of_int (Testkit.binomial r ~n:10_000 ~p:0.5)) 5_000 rng in
  Alcotest.(check bool) "mean near 5000" true (abs_float (mean -. 5000.0) < 10.0)

let test_binomial_extreme_p () =
  let rng = Prng.Rng.create 59 in
  let mean = mean_of (fun r -> float_of_int (Testkit.binomial r ~n:1_000 ~p:0.001)) 50_000 rng in
  Alcotest.(check bool) "mean near 1" true (abs_float (mean -. 1.0) < 0.05)

let test_binomial_edges () =
  let rng = Prng.Rng.create 61 in
  Alcotest.(check int) "n=0" 0 (Testkit.binomial rng ~n:0 ~p:0.5);
  Alcotest.(check int) "p=0" 0 (Testkit.binomial rng ~n:100 ~p:0.0);
  Alcotest.(check int) "p=1" 100 (Testkit.binomial rng ~n:100 ~p:1.0)

let test_geometric_mean () =
  let rng = Prng.Rng.create 67 in
  (* mean failures before success = (1-p)/p = 3 for p = 0.25 *)
  let mean = mean_of (fun r -> float_of_int (Prng.Dist.geometric r ~p:0.25)) 100_000 rng in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.1)

let test_zipf_support () =
  let rng = Prng.Rng.create 71 in
  for _ = 1 to 10_000 do
    let v = Prng.Dist.zipf rng ~n:1000 ~s:1.1 in
    if v < 1 || v > 1000 then Alcotest.fail "zipf out of support"
  done

let test_zipf_rank1_frequency () =
  (* P(1) = 1 / (1^s * H_{n,s}); for n=100, s=1, H = 5.187..., so ~0.1928 *)
  let rng = Prng.Rng.create 73 in
  let n = 200_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Prng.Dist.zipf rng ~n:100 ~s:1.0 = 1 then incr ones
  done;
  let freq = float_of_int !ones /. float_of_int n in
  let h = Array.fold_left ( +. ) 0.0 (Array.init 100 (fun i -> 1.0 /. float_of_int (i + 1))) in
  Alcotest.(check bool) "rank-1 frequency" true (abs_float (freq -. (1.0 /. h)) < 0.01)

let test_zipf_n1 () =
  let rng = Prng.Rng.create 79 in
  Alcotest.(check int) "n=1 always 1" 1 (Prng.Dist.zipf rng ~n:1 ~s:2.0)

let test_log_factorial () =
  check_float "0!" 0.0 (Prng.Dist.log_factorial 0);
  check_float "5!" (log 120.0) (Prng.Dist.log_factorial 5);
  (* Stirling branch vs exact sum at n=300 *)
  let exact = ref 0.0 in
  for i = 2 to 300 do
    exact := !exact +. log (float_of_int i)
  done;
  Alcotest.(check bool) "stirling accurate" true
    (abs_float (Prng.Dist.log_factorial 300 -. !exact) < 1e-8)

let test_log_choose () =
  check_float "C(5,2)" (log 10.0) (Prng.Dist.log_choose 5 2);
  Alcotest.(check bool) "k>n" true (Prng.Dist.log_choose 3 5 = neg_infinity);
  Alcotest.(check bool) "k<0" true (Prng.Dist.log_choose 3 (-1) = neg_infinity)

(* --- invalid arguments --- *)

let test_invalid_arguments () =
  let rng = Prng.Rng.create 1 in
  Alcotest.check_raises "below 0" (Invalid_argument "Rng.below: n must be positive") (fun () ->
      ignore (Prng.Rng.below rng 0));
  Alcotest.check_raises "below negative" (Invalid_argument "Rng.below: n must be positive")
    (fun () -> ignore (Prng.Rng.below rng (-3)));
  Alcotest.check_raises "exponential rate" (Invalid_argument "Dist.exponential: rate must be positive")
    (fun () -> ignore (Prng.Dist.exponential rng ~rate:0.0));
  Alcotest.check_raises "poisson negative" (Invalid_argument "Dist.poisson: negative lambda")
    (fun () -> ignore (Prng.Dist.poisson rng ~lambda:(-1.0)));
  Alcotest.check_raises "binomial negative n" (Invalid_argument "Testkit.binomial: negative n")
    (fun () -> ignore (Testkit.binomial rng ~n:(-1) ~p:0.5));
  Alcotest.check_raises "binomial bad p" (Invalid_argument "Testkit.binomial: p outside [0,1]")
    (fun () -> ignore (Testkit.binomial rng ~n:10 ~p:1.5));
  Alcotest.check_raises "geometric bad p" (Invalid_argument "Dist.geometric: p outside (0,1]")
    (fun () -> ignore (Prng.Dist.geometric rng ~p:0.0));
  Alcotest.check_raises "zipf bad n" (Invalid_argument "Dist.zipf: n must be >= 1") (fun () ->
      ignore (Prng.Dist.zipf rng ~n:0 ~s:1.0));
  Alcotest.check_raises "zipf bad s" (Invalid_argument "Dist.zipf: s must be positive")
    (fun () -> ignore (Prng.Dist.zipf rng ~n:10 ~s:0.0));
  Alcotest.check_raises "log_factorial negative"
    (Invalid_argument "Dist.log_factorial: negative argument") (fun () ->
      ignore (Prng.Dist.log_factorial (-1)))

let test_below_one_always_zero () =
  let rng = Prng.Rng.create 2 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n=1" 0 (Prng.Rng.below rng 1)
  done

let test_below_large_n () =
  (* n close to the 62-bit sample-space size must not loop or bias *)
  let rng = Prng.Rng.create 3 in
  let n = max_int / 2 in
  for _ = 1 to 50 do
    let v = Prng.Rng.below rng n in
    if v < 0 || v >= n then Alcotest.fail "out of range"
  done

(* --- alias sampler --- *)

let test_alias_matches_weights () =
  let rng = Prng.Rng.create 83 in
  let weights = [| 1.0; 2.0; 3.0; 4.0 |] in
  let a = Prng.Alias.create weights in
  let counts = Array.make 4 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let i = Prng.Alias.sample a rng in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = weights.(i) /. 10.0 *. float_of_int n in
      if abs_float (float_of_int c -. expected) > 6.0 *. sqrt expected then
        Alcotest.fail (Printf.sprintf "alias bucket %d off: %d vs %f" i c expected))
    counts

let test_alias_single () =
  let rng = Prng.Rng.create 89 in
  let a = Prng.Alias.create [| 42.0 |] in
  Alcotest.(check int) "single bucket" 0 (Prng.Alias.sample a rng);
  Alcotest.(check int) "length" 1 (Prng.Alias.length a)

let test_alias_zero_weight () =
  let rng = Prng.Rng.create 97 in
  let a = Prng.Alias.create [| 0.0; 1.0; 0.0 |] in
  for _ = 1 to 1000 do
    Alcotest.(check int) "only positive bucket" 1 (Prng.Alias.sample a rng)
  done

let test_alias_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty distribution")
    (fun () -> ignore (Prng.Alias.create [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Alias.create: weights must sum to a positive value") (fun () ->
      ignore (Prng.Alias.create [| 0.0; 0.0 |]))

(* --- qcheck properties --- *)

let prop_below_in_range =
  QCheck.Test.make ~name:"below always in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Prng.Rng.create seed in
      let v = Prng.Rng.below rng n in
      v >= 0 && v < n)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Prng.Rng.create seed in
      let a = Array.of_list l in
      Prng.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_binomial_in_range =
  QCheck.Test.make ~name:"binomial in [0,n]" ~count:300
    QCheck.(triple small_int (int_range 0 5000) (float_range 0.0 1.0))
    (fun (seed, n, p) ->
      let rng = Prng.Rng.create seed in
      let v = Testkit.binomial rng ~n ~p in
      v >= 0 && v <= n)

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "below range" `Quick test_below_range;
          Alcotest.test_case "below uniform" `Quick test_below_uniform;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "permutation" `Quick test_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "poisson small" `Quick test_poisson_mean_small;
          Alcotest.test_case "poisson large" `Quick test_poisson_mean_large;
          Alcotest.test_case "binomial small" `Quick test_binomial_exact_small;
          Alcotest.test_case "binomial large" `Quick test_binomial_large;
          Alcotest.test_case "binomial extreme p" `Quick test_binomial_extreme_p;
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "zipf support" `Quick test_zipf_support;
          Alcotest.test_case "zipf rank-1 frequency" `Quick test_zipf_rank1_frequency;
          Alcotest.test_case "zipf n=1" `Quick test_zipf_n1;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "log_choose" `Quick test_log_choose;
        ] );
      ( "edge_cases",
        [
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "below 1" `Quick test_below_one_always_zero;
          Alcotest.test_case "below large n" `Quick test_below_large_n;
        ] );
      ( "alias",
        [
          Alcotest.test_case "matches weights" `Quick test_alias_matches_weights;
          Alcotest.test_case "single bucket" `Quick test_alias_single;
          Alcotest.test_case "zero weight bucket" `Quick test_alias_zero_weight;
          Alcotest.test_case "invalid input" `Quick test_alias_invalid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_below_in_range; prop_shuffle_preserves_multiset; prop_binomial_in_range ] );
    ]
