(* The determinism contract of the domain pool: every combinator must
   produce bit-identical results at any pool size, exceptions must
   propagate, and pool resizing must be safe mid-session. *)

let with_jobs n f =
  let before = Parallel.jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs before) f

let test_set_jobs_validation () =
  let before = Parallel.jobs () in
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Parallel.set_jobs: pool size must be positive") (fun () ->
      Parallel.set_jobs 0);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Parallel.set_jobs: pool size must be positive") (fun () ->
      Parallel.set_jobs (-3));
  (* past the runtime's domain limit: raises before any pool starts *)
  Alcotest.check_raises "above the domain limit rejected"
    (Invalid_argument "Parallel.set_jobs: pool size above the runtime's 128 domains") (fun () ->
      Parallel.set_jobs 129);
  Alcotest.(check int) "setting unchanged" before (Parallel.jobs ())

let test_parallel_for_covers_all_indices () =
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      (* n chosen to exercise uneven chunking and the small-n
         sequential fallback *)
      List.iter
        (fun n ->
          let hits = Array.make n 0 in
          Parallel.parallel_for ~min_chunk:1 n (fun i -> hits.(i) <- hits.(i) + 1);
          Alcotest.(check (array int))
            (Printf.sprintf "each index once (jobs=%d n=%d)" jobs n)
            (Array.make n 1) hits)
        [ 0; 1; 7; 64; 1000 ])
    [ 1; 2; 4 ]

let test_parallel_init_matches_sequential () =
  let f i = (i * 31) + (i mod 7) in
  let want = Array.init 1999 f in
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      Alcotest.(check (array int))
        (Printf.sprintf "init identical (jobs=%d)" jobs)
        want
        (Parallel.parallel_init ~min_chunk:1 1999 f))
    [ 1; 2; 4 ]

exception Boom

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      Alcotest.check_raises (Printf.sprintf "raises (jobs=%d)" jobs) Boom (fun () ->
          Parallel.parallel_for ~min_chunk:1 100 (fun i -> if i = 57 then raise Boom)))
    [ 1; 4 ]

let test_nested_calls_fall_back () =
  (* a parallel call from inside a worker function must not deadlock:
     it runs sequentially on whichever domain hit it *)
  with_jobs 4 @@ fun () ->
  let out = Array.make 64 0 in
  Parallel.parallel_for ~min_chunk:1 8 (fun i ->
      Parallel.parallel_for ~min_chunk:1 8 (fun j -> out.((i * 8) + j) <- (i * 8) + j));
  Alcotest.(check (array int)) "nested writes" (Array.init 64 Fun.id) out

let test_resize_mid_session () =
  let f i = i * 3 in
  let want = Array.init 100 f in
  with_jobs 2 @@ fun () ->
  Alcotest.(check (array int)) "jobs=2" want (Parallel.parallel_init ~min_chunk:1 100 f);
  Parallel.set_jobs 4;
  Alcotest.(check (array int)) "jobs=4 after resize" want
    (Parallel.parallel_init ~min_chunk:1 100 f);
  Parallel.shutdown ();
  (* pool restarts lazily after an explicit shutdown *)
  Alcotest.(check (array int)) "after shutdown" want
    (Parallel.parallel_init ~min_chunk:1 100 f)

let prop_init_identical_any_pool =
  QCheck.Test.make ~name:"parallel_init identical at any pool size" ~count:50
    QCheck.(pair (int_range 0 800) (int_range 1 6))
    (fun (n, jobs) ->
      let f i = (i * 2654435761) lxor (i lsr 3) in
      let seq = Array.init n f in
      with_jobs jobs (fun () -> Parallel.parallel_init ~min_chunk:1 n f = seq))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "set_jobs validation" `Quick test_set_jobs_validation;
          Alcotest.test_case "for covers all indices" `Quick test_parallel_for_covers_all_indices;
          Alcotest.test_case "init matches sequential" `Quick test_parallel_init_matches_sequential;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "nested calls fall back" `Quick test_nested_calls_fall_back;
          Alcotest.test_case "resize mid-session" `Quick test_resize_mid_session;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_init_identical_any_pool ]);
    ]
