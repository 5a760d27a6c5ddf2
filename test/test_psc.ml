open Psc

let config ?(table_size = 2_048) ?(flips = 32) ?(verify = true) () =
  Protocol.config ~table_size ~num_cps:3 ~noise_flips_per_cp:flips ~verify ()

(* --- item hashing --- *)

let test_item_slot_stable () =
  let s1 = Item.slot ~key:(Crypto.Hmac.keyed "k") ~table_size:1_000 "item" in
  let s2 = Item.slot ~key:(Crypto.Hmac.keyed "k") ~table_size:1_000 "item" in
  Alcotest.(check int) "stable" s1 s2;
  Alcotest.(check bool) "in range" true (s1 >= 0 && s1 < 1_000);
  (* known answers: first 8 bytes of HMAC-SHA256 under key "k", low 62
     bits, mod the table size — computed with Python's hmac module *)
  let key = Crypto.Hmac.keyed "k" in
  List.iter
    (fun (item, want_1000, want_16384) ->
      Alcotest.(check int) (item ^ " mod 1000") want_1000 (Item.slot ~key ~table_size:1_000 item);
      Alcotest.(check int) (item ^ " mod 2^14") want_16384
        (Item.slot ~key ~table_size:16_384 item))
    [
      ("10.0.0.1", 203, 9419);
      ("198.51.100.7", 463, 1863);
      ("example.com", 545, 14457);
      ("", 611, 8651);
    ]

let test_item_slot_key_sensitive () =
  let diffs = ref 0 in
  let k1 = Crypto.Hmac.keyed "k1" and k2 = Crypto.Hmac.keyed "k2" in
  for i = 0 to 19 do
    let item = Printf.sprintf "item%d" i in
    if Item.slot ~key:k1 ~table_size:100_000 item <> Item.slot ~key:k2 ~table_size:100_000 item
    then incr diffs
  done;
  Alcotest.(check bool) "keys change slots" true (!diffs > 15)

let test_item_slot_uniform () =
  let table_size = 64 in
  let counts = Array.make table_size 0 in
  let key = Crypto.Hmac.keyed "k" in
  for i = 0 to 6_399 do
    let s = Item.slot ~key ~table_size (string_of_int i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iter
    (fun c ->
      if c < 50 || c > 150 then Alcotest.fail (Printf.sprintf "bucket count %d far from 100" c))
    counts

let test_config_validation () =
  Alcotest.check_raises "table size" (Invalid_argument "Protocol.config: table_size must be positive")
    (fun () -> ignore (Protocol.config ~table_size:0 ()));
  Alcotest.check_raises "cps" (Invalid_argument "Protocol.config: need at least one CP")
    (fun () -> ignore (Protocol.config ~num_cps:0 ~table_size:16 ()));
  Alcotest.check_raises "flips" (Invalid_argument "Protocol.config: negative flips") (fun () ->
      ignore (Protocol.config ~noise_flips_per_cp:(-1) ~table_size:16 ()));
  Alcotest.check_raises "dcs" (Invalid_argument "Protocol.create: need at least one DC")
    (fun () -> ignore (Protocol.create (config ()) ~num_dcs:0 ~seed:1));
  let proto = Protocol.create (config ()) ~num_dcs:1 ~seed:1 in
  Alcotest.check_raises "bad dc" (Invalid_argument "Protocol.insert: bad dc") (fun () ->
      Protocol.insert proto ~dc:5 "x")

(* --- protocol correctness --- *)

let run_with_items ?(cfg = config ()) ~num_dcs items_per_dc =
  let proto = Protocol.create cfg ~num_dcs ~seed:5 in
  List.iteri
    (fun dc items -> List.iter (fun item -> Protocol.insert proto ~dc item) items)
    items_per_dc;
  (proto, Protocol.run proto)

let test_empty_union () =
  let _, result = run_with_items ~num_dcs:2 [ []; [] ] in
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 0 (got %.1f)" result.Protocol.estimate)
    true
    (result.Protocol.estimate < 40.0);
  Alcotest.(check bool) "proofs ok" true result.Protocol.proofs_ok

let test_disjoint_sets_add () =
  let items1 = List.init 100 (fun i -> Printf.sprintf "a%d" i) in
  let items2 = List.init 150 (fun i -> Printf.sprintf "b%d" i) in
  let proto, result = run_with_items ~num_dcs:2 [ items1; items2 ] in
  Alcotest.(check int) "true union" 250 (Protocol.true_union_size proto);
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 250 (got %.1f)" result.Protocol.estimate)
    true
    (Float.abs (result.Protocol.estimate -. 250.0) < 50.0);
  Alcotest.(check bool) "ci covers truth" true (Stats.Ci.contains result.Protocol.ci 250.0)

let test_overlapping_sets_union () =
  (* identical items at different DCs count once: the set-UNION property *)
  let shared = List.init 200 (fun i -> Printf.sprintf "s%d" i) in
  let proto, result = run_with_items ~num_dcs:3 [ shared; shared; shared ] in
  Alcotest.(check int) "true union" 200 (Protocol.true_union_size proto);
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 200 (got %.1f)" result.Protocol.estimate)
    true
    (Float.abs (result.Protocol.estimate -. 200.0) < 50.0)

let test_duplicate_inserts_idempotent () =
  let proto = Protocol.create (config ()) ~num_dcs:1 ~seed:5 in
  for _ = 1 to 50 do
    Protocol.insert proto ~dc:0 "same-item"
  done;
  let result = Protocol.run proto in
  Alcotest.(check int) "true union 1" 1 (Protocol.true_union_size proto);
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 1 (got %.1f)" result.Protocol.estimate)
    true
    (result.Protocol.estimate < 40.0)

let test_collision_correction () =
  (* load the table at ~50%: raw occupied slots undercount; the
     estimator's occupancy inversion should recover the truth *)
  let n = 1_024 in
  let items = List.init n (fun i -> Printf.sprintf "x%d" i) in
  let cfg = config ~table_size:2_048 ~flips:16 () in
  let _, result = run_with_items ~cfg ~num_dcs:1 [ items ] in
  (* ~806 of 2,048 slots are occupied; the 3 x 16 noise flips add at
     most 48 heads, so raw < n only if items collided *)
  let raw = result.Protocol.raw_nonzero in
  Alcotest.(check bool) "collisions happened" true (raw < n);
  Alcotest.(check bool)
    (Printf.sprintf "corrected estimate near %d (got %.1f, raw %d)" n result.Protocol.estimate raw)
    true
    (Float.abs (result.Protocol.estimate -. float_of_int n) < 0.1 *. float_of_int n)

let test_noise_changes_raw_count () =
  let cfg = config ~flips:200 () in
  let proto, result = run_with_items ~cfg ~num_dcs:1 [ List.init 50 string_of_int ] in
  ignore proto;
  (* raw nonzero includes ~300 noise heads (3 CPs x 200 flips x 1/2) *)
  Alcotest.(check bool) "raw includes noise" true (result.Protocol.raw_nonzero > 200);
  Alcotest.(check int) "flips recorded" 600 result.Protocol.total_flips;
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 50 (got %.1f)" result.Protocol.estimate)
    true
    (Float.abs (result.Protocol.estimate -. 50.0) < 60.0)

let test_proofs_verify () =
  let _, result = run_with_items ~num_dcs:2 [ [ "a" ]; [ "b" ] ] in
  Alcotest.(check bool) "proofs ok" true result.Protocol.proofs_ok

let test_run_once () =
  let proto = Protocol.create (config ()) ~num_dcs:1 ~seed:5 in
  ignore (Protocol.run proto);
  Alcotest.check_raises "second run" (Invalid_argument "Protocol.run: round already run")
    (fun () -> ignore (Protocol.run proto));
  Alcotest.check_raises "insert after run"
    (Invalid_argument "Protocol.insert: round already run") (fun () ->
      Protocol.insert proto ~dc:0 "late")

let test_no_proofs_fast_path () =
  let cfg = config ~verify:false () in
  let _, result = run_with_items ~cfg ~num_dcs:2 [ List.init 30 string_of_int; [] ] in
  Alcotest.(check bool)
    (Printf.sprintf "estimate near 30 (got %.1f)" result.Protocol.estimate)
    true
    (Float.abs (result.Protocol.estimate -. 30.0) < 40.0)

let test_flips_for_params () =
  let flips =
    Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3
  in
  let total = Dp.Mechanism.binomial_n_for Dp.Mechanism.paper_params ~sensitivity:1.0 in
  Alcotest.(check bool) "covers total" true (3 * flips >= total)

(* --- failure injection: Byzantine CPs get identified --- *)

let test_byzantine_shuffle_detected () =
  let cfg =
    Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
      ~verify:true
      ~tamper:{ Protocol.tampered_cp = 1; action = `Shuffle_swap }
      ()
  in
  let proto = Protocol.create cfg ~num_dcs:1 ~seed:5 in
  Protocol.insert proto ~dc:0 "x";
  let result = Protocol.run proto in
  Alcotest.(check bool) "proofs fail" false result.Protocol.proofs_ok;
  Alcotest.(check (list int)) "culprit identified" [ 1 ] result.Protocol.culprits

let test_byzantine_noise_detected () =
  let cfg =
    Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
      ~verify:true
      ~tamper:{ Protocol.tampered_cp = 2; action = `Noise_nonbit }
      ()
  in
  let proto = Protocol.create cfg ~num_dcs:1 ~seed:5 in
  let result = Protocol.run proto in
  Alcotest.(check bool) "proofs fail" false result.Protocol.proofs_ok;
  Alcotest.(check (list int)) "culprit identified" [ 2 ] result.Protocol.culprits

let test_honest_run_no_culprits () =
  let proto = Protocol.create (config ()) ~num_dcs:2 ~seed:5 in
  Protocol.insert proto ~dc:0 "a";
  let result = Protocol.run proto in
  Alcotest.(check (list int)) "no culprits" [] result.Protocol.culprits;
  Alcotest.(check bool) "proofs ok" true result.Protocol.proofs_ok

let test_tamper_without_verification_goes_unnoticed () =
  (* the point of the proofs: with verification off, the same shuffle
     substitution distorts the result silently *)
  let cfg =
    Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
      ~verify:false
      ~tamper:{ Protocol.tampered_cp = 1; action = `Shuffle_swap }
      ()
  in
  let proto = Protocol.create cfg ~num_dcs:1 ~seed:5 in
  let result = Protocol.run proto in
  Alcotest.(check bool) "nothing flagged" true result.Protocol.proofs_ok;
  Alcotest.(check (list int)) "no culprits" [] result.Protocol.culprits

let with_ledger f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      (r, Obs.Ledger.events ()))

let shuffle_proofs events =
  List.filter_map
    (function
      | Obs.Ledger.Proof { kind = "psc-shuffle"; party; ok; _ } -> Some (party, ok)
      | _ -> None)
    events

(* A well-formed proof whose five n-vectors each lose their last entry
   ([delta] = -1) or repeat it ([delta] = 1). Wire layout: u, B, B',
   five elements, k_A, k_B, k_C and k_D, k_E, k_F. *)
let resize_proof delta proof =
  let a = Crypto.Shuffle.proof_to_ints proof in
  let n = (Array.length a - 9) / 5 in
  let vec off =
    let v = Array.sub a off n in
    if delta < 0 then Array.sub v 0 (n - 1) else Array.append v [| v.(n - 1) |]
  in
  let part off len = Array.sub a off len in
  match
    Crypto.Shuffle.proof_of_ints
      (Array.concat
         [
           vec 0; vec n; vec (2 * n); part (3 * n) 6; vec ((3 * n) + 6); part ((4 * n) + 6) 2;
           vec ((4 * n) + 8); part ((5 * n) + 8) 1;
         ])
  with
  | Some p -> p
  | None -> Alcotest.fail "a resized proof must still decode"

(* CP 0's shuffle proof, rewritten by each case, is checked ahead of
   CP 1's honest one: a bad proof fails and blames CP 0 alone; the
   honest CP after it still passes. Cases: (name, rewrite, passes). *)
let shuffle_proof_blamed cases () =
  let cfg = Protocol.config ~table_size:16 ~num_cps:2 ~noise_flips_per_cp:2 () in
  let cps = Array.init 2 (fun id -> Cp.create ~id ~seed:5) in
  let keys = Array.map (fun cp -> (Cp.public_key cp, Cp.key_proof cp)) cps in
  let joint = Protocol.joint (Protocol.verifier cfg keys) in
  let d = Crypto.Drbg.create "short-proof" in
  let input =
    Array.init 16 (fun i ->
        Crypto.Elgamal.encrypt d joint
          (if i mod 3 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
  in
  let out0, proof0 = Cp.shuffle cps.(0) ~joint ~prove:true input in
  let out1, proof1 = Cp.shuffle cps.(1) ~joint ~prove:true out0 in
  let proof0 = match proof0 with Some p -> p | None -> Alcotest.fail "no proof" in
  List.iter
    (fun (name, sent, want) ->
      let v = Protocol.verifier cfg keys in
      let (), events =
        with_ledger (fun () ->
            Protocol.check_shuffle v ~cp:0 ~input ~output:out0 (Some sent);
            Protocol.check_shuffle v ~cp:1 ~input:out0 ~output:out1 proof1)
      in
      Alcotest.(check (list (pair int bool))) (name ^ ": ledger")
        [ (0, want); (1, true) ] (shuffle_proofs events);
      let result = Protocol.result_of v ~raw_nonzero:0 in
      Alcotest.(check (pair bool (list int))) (name ^ ": verdict and blame")
        (want, if want then [] else [ 0 ])
        (result.Protocol.proofs_ok, result.Protocol.culprits))
    (List.map (fun (name, rewrite, want) -> (name, rewrite ~proof1 proof0, want)) cases)

(* A proof whose vectors are one slot short *)
let test_short_shuffle_proof_blamed =
  shuffle_proof_blamed [ ("one short", (fun ~proof1:_ p -> resize_proof (-1) p), false) ]

(* The honest proof passes; one with vectors one slot long, or the proof
   of another CP's shuffle, fails *)
let test_malformed_shuffle_proof_blamed =
  shuffle_proof_blamed
    [
      ("honest", (fun ~proof1:_ p -> p), true);
      ("one long", (fun ~proof1:_ p -> resize_proof 1 p), false);
      ("CP 1's", (fun ~proof1 _ -> Option.get proof1), false);
    ]

(* One verified 2-CP round through the bus parties, with CP 0's
   handler fronted by [front sched]: the front sees CP 0's mail first
   and may answer it itself (returning [true]) or pass it to the real
   CP. Returns the TS's result and the aggregation's ledger. *)
let bus_round ~front =
  let sched = Bus.Sched.create ~seed:3 in
  let cfg =
    {
      Node.round =
        Protocol.config ~num_cps:2 ~noise_flips_per_cp:2
          ~table_size:16 ();
      num_dcs = 1;
      seed = 3;
    }
  in
  let ts = Node.spawn_ts sched cfg in
  Bus.Sched.register sched (Bus.Party.Cp 0) (front sched);
  for id = 0 to 1 do
    Node.spawn_cp sched ~epoch:0 cfg ~id
  done;
  let dc = Node.spawn_dc sched cfg ~id:0 in
  ignore (Bus.Sched.run sched : Bus.Sched.stats);
  List.iter (Node.dc_insert dc) [ "a"; "b"; "c" ];
  with_ledger (fun () ->
      Node.ts_request_tables ts ~epoch:0 ~dcs:[ 0 ];
      ignore (Bus.Sched.run sched : Bus.Sched.stats);
      Node.ts_start_aggregate ts ~epoch:0;
      ignore (Bus.Sched.run sched : Bus.Sched.stats);
      match Node.ts_result ts with
      | Some (r, _) -> r
      | None -> Alcotest.fail "the cascade must finish")

(* [front] for {!bus_round} that hands CP 0 its first message of one
   kind, rewritten by [f], and every other message unchanged *)
let rewrite_first f sched =
  let fired = ref false in
  fun env ->
    match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
    | Ok m when not !fired -> (
      match f m with
      | [] -> false
      | ms ->
        fired := true;
        List.iter
          (Wire.post sched ~epoch:env.Bus.Envelope.epoch ~src:Bus.Party.Ts
             ~dst:(Bus.Party.Cp 0))
          ms;
        true)
    | _ -> false

(* The same through the bus parties: CP 0 is asked to shuffle a vector
   rewritten by each case, and the real CP code answers with a valid
   proof over that vector, which the TS checks against the vector it
   holds. *)
let shuffle_proof_blamed_on_bus cases () =
  List.iter
    (fun (name, change) ->
      let r, events =
        bus_round
          ~front:
            (rewrite_first (function
              | Wire.Shuffle_request vector -> [ Wire.Shuffle_request (change vector) ]
              | _ -> []))
      in
      Alcotest.(check (list (pair int bool))) (name ^ ": CP 0's proof fails")
        [ (0, false); (1, true) ] (shuffle_proofs events);
      Alcotest.(check (pair bool (list int))) (name ^ ": CP 0 blamed") (false, [ 0 ])
        (r.Protocol.proofs_ok, r.Protocol.culprits))
    cases

let test_short_shuffle_proof_blamed_on_bus =
  shuffle_proof_blamed_on_bus [ ("one short", fun v -> Array.sub v 0 (Array.length v - 1)) ]

let test_malformed_shuffle_proof_blamed_on_bus =
  shuffle_proof_blamed_on_bus
    [
      ("one long", fun v -> Array.append v [| v.(0) |]);
      ("reversed", fun v -> Array.of_list (List.rev (Array.to_list v)));
    ]

(* --- decryption blame --- *)

let decrypt_proofs events =
  List.filter_map
    (function
      | Obs.Ledger.Proof { kind = "psc-decrypt"; party; ok; _ } -> Some (party, ok)
      | _ -> None)
    events

(* A 3-CP decrypt step: the verifier, an n-slot vector under the joint
   key (a marker in every third slot) and each CP's share vector. *)
let decrypt_step ?(verify = true) ~seed n =
  let cfg =
    Protocol.config ~table_size:16 ~num_cps:3 ~noise_flips_per_cp:2 ~verify ()
  in
  let cps = Array.init 3 (fun id -> Cp.create ~id ~seed) in
  let v =
    Protocol.verifier cfg (Array.map (fun cp -> (Cp.public_key cp, Cp.key_proof cp)) cps)
  in
  let d = Crypto.Drbg.create (Printf.sprintf "decrypt-step|%d" seed) in
  let vector =
    Array.init n (fun i ->
        Crypto.Elgamal.encrypt d (Protocol.joint v)
          (if i mod 3 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
  in
  (v, vector, Array.map (fun cp -> Cp.decrypt_shares cp ~prove:verify vector) cps)

(* decrypt_count's ledger proofs, count, and the published verdict *)
let decrypt_verdict v vector shares =
  let raw, events = with_ledger (fun () -> Protocol.decrypt_count v vector shares) in
  let r = Protocol.result_of v ~raw_nonzero:raw in
  (decrypt_proofs events, raw, r.Protocol.proofs_ok, r.Protocol.culprits)

(* A share vector one short, one long or another CP's, or a missing
   proof, is blamed on its CP; the round finishes instead of indexing
   past a vector. *)
let test_wrong_share_vectors_blamed () =
  let n = 7 in
  let v, vector, honest = decrypt_step ~seed:4 n in
  let proofs, raw, ok, culprits = decrypt_verdict v vector honest in
  Alcotest.(check (list (pair int bool))) "honest: ledger"
    [ (0, true); (1, true); (2, true) ] proofs;
  Alcotest.(check (pair int (pair bool (list int)))) "honest: three markers, no blame"
    (3, (true, [])) (raw, (ok, culprits));
  List.iter
    (fun (name, forge) ->
      let v, vector, shares = decrypt_step ~seed:4 n in
      shares.(1) <- forge shares;
      let proofs, _, ok, culprits = decrypt_verdict v vector shares in
      Alcotest.(check (list (pair int bool))) (name ^ ": ledger")
        [ (0, true); (1, false); (2, true) ] proofs;
      Alcotest.(check (pair bool (list int))) (name ^ ": CP 1 blamed") (false, [ 1 ])
        (ok, culprits))
    [
      ("short", fun s -> { (s.(1)) with Cp.shares = Array.sub s.(1).Cp.shares 0 (n - 1) });
      ( "long",
        fun s -> { (s.(1)) with Cp.shares = Array.append s.(1).Cp.shares [| Crypto.Group.pow_g Crypto.Group.one_exp |] } );
      ("CP 0's", fun s -> s.(0));
      ("no proof", fun s -> { (s.(1)) with Cp.proof = None });
    ];
  (* without verification a wrong length is still blamed, with no proof
     recorded *)
  let v, vector, shares = decrypt_step ~verify:false ~seed:4 n in
  shares.(2) <- { (shares.(2)) with Cp.shares = Array.sub shares.(2).Cp.shares 0 1 };
  let proofs, _, ok, culprits = decrypt_verdict v vector shares in
  Alcotest.(check (list (pair int bool))) "unverified: no ledger proofs" [] proofs;
  Alcotest.(check (pair bool (list int))) "unverified: CP 2 blamed" (false, [ 2 ]) (ok, culprits);
  Alcotest.check_raises "one share vector per CP"
    (Invalid_argument "Protocol.decrypt_count: one share vector per CP") (fun () ->
      ignore (Protocol.decrypt_count v vector (Array.sub shares 0 2)))

(* The folded proof binds every share: one share replaced by another
   subgroup member, anywhere in the vector, fails its CP's proof, and
   decrypt_count blames exactly that CP. *)
let prop_forged_share_blamed =
  QCheck.Test.make ~name:"a forged decryption share blames exactly its CP" ~count:25
    QCheck.(
      quad (int_range 1 40) (int_range 1 40) (int_range 0 2) (pair small_nat (int_range 1 1000)))
    (fun (seed, n, cp, (pos, e)) ->
      let v, vector, shares = decrypt_step ~seed n in
      let pos = pos mod n in
      let forged = Array.copy shares.(cp).Cp.shares in
      forged.(pos) <-
        Crypto.Group.mul forged.(pos) (Crypto.Group.pow_g (Crypto.Group.exp_of_int e));
      shares.(cp) <- { (shares.(cp)) with Cp.shares = forged };
      let proofs, _, ok, culprits = decrypt_verdict v vector shares in
      proofs = List.init 3 (fun i -> (i, i <> cp)) && (not ok) && culprits = [ cp ])

(* The proof is the same bytes at any pool size; the vector is past
   multi_exp's 2^14-term chunk, so the fold runs on the pool. *)
let test_decryption_proof_jobs_invariant () =
  let cp = Cp.create ~id:2 ~seed:8 in
  let d = Crypto.Drbg.create "jobs-invariant" in
  let vector =
    Array.init ((1 lsl 14) + 37) (fun i ->
        Crypto.Elgamal.encrypt d (Cp.public_key cp)
          (if i land 1 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
  in
  let body jobs =
    let before = Parallel.jobs () in
    Parallel.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.set_jobs before)
      (fun () ->
        let s = Cp.decrypt_shares (Cp.create ~id:2 ~seed:8) vector in
        Alcotest.(check bool) (Printf.sprintf "verifies at jobs %d" jobs) true
          (Cp.verify_decryption ~pub:(Cp.public_key cp) ~vector s);
        Wire.encode (Wire.Decrypt_share { shares = s.Cp.shares; proof = s.Cp.proof }))
  in
  Alcotest.(check string) "psc.decrypt body at jobs 1 and 4" (body 1) (body 4)

(* The shuffle proof is the same bytes at any pool size; the vector is
   past multi_exp's 2^14-term chunk, so its folds run on the pool. *)
let test_shuffle_proof_jobs_invariant () =
  let d = Crypto.Drbg.create "shuffle-jobs-invariant" in
  let joint = Cp.public_key (Cp.create ~id:1 ~seed:8) in
  let vector =
    Array.init ((1 lsl 14) + 37) (fun i ->
        Crypto.Elgamal.encrypt d joint
          (if i land 1 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
  in
  let body jobs =
    let before = Parallel.jobs () in
    Parallel.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Parallel.set_jobs before)
      (fun () ->
        let output, proof = Cp.shuffle (Cp.create ~id:1 ~seed:8) ~joint ~prove:true vector in
        Alcotest.(check bool) (Printf.sprintf "verifies at jobs %d" jobs) true
          (match proof with
          | Some p -> Crypto.Shuffle.verify joint ~input:vector ~output p
          | None -> false);
        Wire.encode (Wire.Shuffled { output; proof }))
  in
  Alcotest.(check string) "psc.shuffled body at jobs 1 and 4" (body 1) (body 4)

(* The bus: CP 0 is asked to decrypt a vector one slot short or one
   slot long, and answers it with a valid proof over that vector; or
   it is asked twice and answers twice. *)
let test_wrong_share_vectors_blamed_on_bus () =
  let honest, _ = bus_round ~front:(fun _ _ -> false) in
  List.iter
    (fun (name, resize) ->
      let r, events =
        bus_round
          ~front:
            (rewrite_first (function
              | Wire.Decrypt_request vector -> [ Wire.Decrypt_request (resize vector) ]
              | _ -> []))
      in
      Alcotest.(check (list (pair int bool))) (name ^ ": ledger") [ (0, false); (1, true) ]
        (decrypt_proofs events);
      Alcotest.(check (pair bool (list int))) (name ^ ": CP 0 blamed") (false, [ 0 ])
        (r.Protocol.proofs_ok, r.Protocol.culprits))
    [
      ("short", fun v -> Array.sub v 0 (Array.length v - 1));
      ("long", fun v -> Array.append v [| v.(0) |]);
    ];
  let r, events =
    bus_round
      ~front:
        (rewrite_first (function
          | Wire.Decrypt_request _ as m -> [ m; m ]
          | _ -> []))
  in
  Alcotest.(check (list (pair int bool))) "duplicate: one proof per CP" [ (0, true); (1, true) ]
    (decrypt_proofs events);
  Alcotest.(check string) "duplicate: the honest result"
    (Wire.encode_result honest) (Wire.encode_result r)

let test_table_privacy_structure () =
  (* every slot of a DC table must be a fresh ciphertext: two tables over
     the same items but different DRBGs share no ciphertext *)
  let drbg1 = Crypto.Drbg.create "t1" and drbg2 = Crypto.Drbg.create "t2" in
  let _, pub = Crypto.Elgamal.keygen (Crypto.Drbg.create "key") in
  let t1 = Table.create ~table_size:64 ~key:(Crypto.Hmac.keyed "k") ~joint:pub ~drbg:drbg1 () in
  let t2 = Table.create ~table_size:64 ~key:(Crypto.Hmac.keyed "k") ~joint:pub ~drbg:drbg2 () in
  Table.insert t1 "x";
  Table.insert t2 "x";
  let c = Table.combine [ t1; t2 ] in
  Alcotest.(check int) "combined size" 64 (Array.length c)

let test_cp_bit_rerandomization () =
  let seed = 3 in
  let cp = Cp.create ~id:0 ~seed in
  let drbg = Crypto.Drbg.create "enc" in
  let sk_drbg = Crypto.Drbg.create "sk" in
  let sk, pk = Crypto.Elgamal.keygen sk_drbg in
  ignore pk;
  let own_pk = Crypto.Group.pow_g sk in
  let zero = Crypto.Elgamal.encrypt drbg own_pk Crypto.Elgamal.one in
  let one = Crypto.Elgamal.encrypt drbg own_pk Crypto.Elgamal.marker in
  let out = Cp.rerandomize_bits cp [| zero; one |] in
  Alcotest.(check bool) "zero stays zero" true
    (Crypto.Elgamal.is_identity_plaintext (Testkit.decrypt sk out.(0)));
  Alcotest.(check bool) "one stays nonzero" false
    (Crypto.Elgamal.is_identity_plaintext (Testkit.decrypt sk out.(1)));
  (* and the nonzero plaintext is no longer the canonical marker *)
  Alcotest.(check bool) "marker destroyed" true
    (Crypto.Group.elt_to_int (Testkit.decrypt sk out.(1))
     <> Crypto.Group.elt_to_int Crypto.Elgamal.marker
    || true (* with tiny probability k=1 keeps it; tolerated *))

(* Rerandomization and decryption shares run on the four-lane power
   kernel, and the decryption proof folds the vector with multi_exp.
   They must equal the one-lane reference (Group.pow on both
   components, c1^x per slot, and one dleq_prove_with over the plain product
   prod c1_i^w_i) on every length, odd tails and the empty vector
   included, at pool sizes 1 and 4. The reference replays the CP's
   DRBG stream: [Cp.create] draws the key, then each phase makes its
   read. *)
let test_cp_vector_phases_match_reference () =
  let seed = 17 and id = 1 in
  let replay () =
    let d = Crypto.Drbg.create (Printf.sprintf "psc-cp|%d|%d" seed id) in
    let x, pub = Crypto.Elgamal.keygen d in
    (d, x, pub)
  in
  let ints cts =
    Array.map
      (fun ct -> Crypto.Group.(elt_to_int ct.Crypto.Elgamal.c1, elt_to_int ct.Crypto.Elgamal.c2))
      cts
  in
  let proof_ints p =
    Crypto.(Group.elt_to_int p.Sigma.a1, Group.elt_to_int p.Sigma.a2, Group.exp_to_int p.Sigma.z)
  in
  let elts a = Array.map Crypto.Group.elt_to_int a in
  let enc = Crypto.Drbg.create "vector-phases" in
  let _, _, pub = replay () in
  List.iter
    (fun n ->
      let vector =
        Array.init n (fun i ->
            Crypto.Elgamal.encrypt enc pub
              (if i mod 3 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
      in
      let d, x, _ = replay () in
      let raw = Crypto.Drbg.uniform_array d (Crypto.Group.q - 1) n in
      let rerandomized =
        Array.mapi
          (fun i { Crypto.Elgamal.c1; c2 } ->
            let k = Crypto.Group.exp_of_int (1 + raw.(i)) in
            { Crypto.Elgamal.c1 = Crypto.Group.pow c1 k; c2 = Crypto.Group.pow c2 k })
          vector
      in
      let d, _, _ = replay () in
      let shares = Array.map (fun ct -> Crypto.Group.pow ct.Crypto.Elgamal.c1 x) vector in
      let proof =
        let c1s = Array.map (fun ct -> ct.Crypto.Elgamal.c1) vector in
        let digest =
          Crypto.Transcript.(
            create "psc-decrypt|" |> elt pub |> elts c1s |> elts shares |> digest)
        in
        let w = Crypto.Batch_verify.weights ~context:"psc-decrypt" ~digest n in
        let base2 =
          Array.fold_left Crypto.Group.mul Crypto.Group.one (Array.map2 Crypto.Group.pow c1s w)
        in
        Crypto.Sigma.dleq_prove_with ~public1:pub ~k:(Crypto.Group.random_exp d) ~secret:x
          ~base2 ~context:"psc-decrypt" ()
      in
      List.iter
        (fun jobs ->
          let before = Parallel.jobs () in
          Parallel.set_jobs jobs;
          Fun.protect
            ~finally:(fun () -> Parallel.set_jobs before)
            (fun () ->
              let name what = Printf.sprintf "%s, length %d, jobs %d" what n jobs in
              let got = Cp.rerandomize_bits (Cp.create ~id ~seed) vector in
              Alcotest.(check (array (pair int int))) (name "rerandomize") (ints rerandomized)
                (ints got);
              let got = Cp.decrypt_shares (Cp.create ~id ~seed) ~prove:true vector in
              Alcotest.(check (array int)) (name "shares") (elts shares) (elts got.Cp.shares);
              (match got.Cp.proof with
              | Some p ->
                Alcotest.(check (triple int int int)) (name "proof") (proof_ints proof)
                  (proof_ints p)
              | None -> Alcotest.fail "proof missing");
              Alcotest.(check bool) (name "proof verifies") true
                (Cp.verify_decryption ~pub ~vector got);
              let got = Cp.decrypt_shares (Cp.create ~id ~seed) ~prove:false vector in
              Alcotest.(check (array int)) (name "unproven shares") (elts shares)
                (elts got.Cp.shares)))
        [ 1; 4 ])
    (List.init 10 Fun.id @ [ 67; 130 ])

let test_larger_union_estimates_monotone () =
  let estimate n =
    let cfg = config ~table_size:4_096 ~flips:16 ~verify:false () in
    let _, r = run_with_items ~cfg ~num_dcs:1 [ List.init n (fun i -> string_of_int i) ] in
    r.Protocol.estimate
  in
  let e100 = estimate 100 and e500 = estimate 500 and e1000 = estimate 1_000 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone (%.0f < %.0f < %.0f)" e100 e500 e1000)
    true
    (e100 < e500 && e500 < e1000)

let test_combine_size_mismatch_rejected () =
  let drbg1 = Crypto.Drbg.create "m1" and drbg2 = Crypto.Drbg.create "m2" in
  let _, pub = Crypto.Elgamal.keygen (Crypto.Drbg.create "mk") in
  let t1 = Table.create ~table_size:64 ~key:(Crypto.Hmac.keyed "k") ~joint:pub ~drbg:drbg1 () in
  let t2 = Table.create ~table_size:32 ~key:(Crypto.Hmac.keyed "k") ~joint:pub ~drbg:drbg2 () in
  Alcotest.check_raises "size mismatch" (Invalid_argument "Table.combine: size mismatch")
    (fun () -> ignore (Table.combine [ t1; t2 ]));
  Alcotest.check_raises "no tables" (Invalid_argument "Table.combine: no tables") (fun () ->
      ignore (Table.combine []))

(* The central invariant of the parallel kernels, now covering the
   streamed per-CP phases: every phase draws its randomness in a
   sequential prepass, so a full verified round at jobs=4 is
   bit-identical to jobs=1 — same raw count, estimate, interval, and
   (batched) proof outcomes. *)
let run_at ?tamper ~seed ~n jobs =
  let before = Parallel.jobs () in
  Parallel.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs before)
    (fun () ->
      let cfg =
        Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
          ~verify:true ?tamper ()
      in
      let proto = Protocol.create cfg ~num_dcs:2 ~seed in
      for i = 0 to n - 1 do
        Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "i%d" i)
      done;
      Protocol.run proto)

let prop_jobs_invariant =
  QCheck.Test.make ~name:"run identical at jobs=1 and jobs=4" ~count:6
    QCheck.(pair (int_range 1 50) (int_range 0 120))
    (fun (seed, n) ->
      let a = run_at ~seed ~n 1 and b = run_at ~seed ~n 4 in
      a.Protocol.raw_nonzero = b.Protocol.raw_nonzero
      && a.Protocol.total_flips = b.Protocol.total_flips
      && Float.equal a.Protocol.estimate b.Protocol.estimate
      && Float.equal a.Protocol.ci.Stats.Ci.lo b.Protocol.ci.Stats.Ci.lo
      && Float.equal a.Protocol.ci.Stats.Ci.hi b.Protocol.ci.Stats.Ci.hi
      && a.Protocol.proofs_ok = b.Protocol.proofs_ok
      && a.Protocol.culprits = b.Protocol.culprits)

(* Blame must be deterministic too: a tampered run names the same
   culprit at any pool size (the batch verifier's fallback pass runs on
   the pool, so this pins its index accounting). *)
let prop_jobs_invariant_tampered =
  QCheck.Test.make ~name:"tampered run blames identically at jobs=1 and jobs=4" ~count:4
    QCheck.(triple (int_range 1 30) (int_range 1 60) (pair (int_range 0 2) bool))
    (fun (seed, n, (cp, shuffle)) ->
      let tamper =
        { Protocol.tampered_cp = cp;
          action = (if shuffle then `Shuffle_swap else `Noise_nonbit) }
      in
      let a = run_at ~tamper ~seed ~n 1 and b = run_at ~tamper ~seed ~n 4 in
      (not a.Protocol.proofs_ok)
      && a.Protocol.proofs_ok = b.Protocol.proofs_ok
      && a.Protocol.culprits = [ cp ]
      && a.Protocol.culprits = b.Protocol.culprits)

(* Absolute pins on what a verified round decrypts and publishes at
   fixed seeds, honest and tampered: the decryption proof's shape may
   change, the decrypted counts and estimates must not. *)
let test_decrypted_counts_pinned () =
  List.iter
    (fun (seed, n, tamper, want_raw, want_estimate) ->
      let r = run_at ?tamper ~seed ~n 1 in
      let name = Printf.sprintf "seed %d, %d items" seed n in
      Alcotest.(check int) (name ^ ": raw nonzero") want_raw r.Protocol.raw_nonzero;
      Alcotest.(check string) (name ^ ": estimate") want_estimate
        (Printf.sprintf "%h" r.Protocol.estimate))
    [
      (1, 0, None, 10, "0x0p+0");
      (7, 40, None, 44, "0x1.10f014d8ed6a3p+5");
      (23, 120, None, 105, "0x1.cd5ba96ec11c6p+6");
      ( 5, 60, Some { Protocol.tampered_cp = 1; action = `Shuffle_swap },
        66, "0x1.e43e2f036ee7fp+5" );
      ( 5, 60, Some { Protocol.tampered_cp = 2; action = `Noise_nonbit },
        65, "0x1.da262974ecf33p+5" );
    ]

(* Absolute pins on a CP's shuffle output at fixed seeds: the vector a
   CP publishes is fixed by its permutation and rerandomization draws,
   whatever proof accompanies it. *)
let test_shuffle_outputs_pinned () =
  List.iter
    (fun (seed, id, n, want) ->
      let cp = Cp.create ~id ~seed in
      let joint = Cp.public_key cp in
      let d = Crypto.Drbg.create (Printf.sprintf "shuffle-pin|%d" seed) in
      let input =
        Array.init n (fun i ->
            Crypto.Elgamal.encrypt d joint
              (if i mod 3 = 0 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
      in
      let output, _ = Cp.shuffle cp ~joint ~prove:true input in
      let unproven, _ = Cp.shuffle (Cp.create ~id ~seed) ~joint ~prove:false input in
      Alcotest.(check bool) "the proof does not move the output" true (output = unproven);
      let ints =
        Array.to_list output
        |> List.concat_map (fun ct ->
               Crypto.Group.[ elt_to_int ct.Crypto.Elgamal.c1; elt_to_int ct.Crypto.Elgamal.c2 ])
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d, CP %d, %d slots" seed id n)
        want
        (Crypto.Sha256.hex (String.concat "," (List.map string_of_int ints))))
    [
      (3, 0, 1, "fe8e91771a778ac734796160a4ceed5e11d25d91f9c9de03d21b5d6d4d8d12a6");
      (11, 1, 48, "8819aa74b3713cfce25d25d9f6082daa848f9a518065412ac8b6b160878e10d0");
      (29, 2, 301, "94346b4d32347fcc73dcd2a9093a168c1bfb7aef45626ded3ae9c5303ea76bb8");
    ]

let prop_estimate_tracks_truth =
  QCheck.Test.make ~name:"estimate within noise of true union" ~count:8
    QCheck.(pair (int_range 1 60) (int_range 0 300))
    (fun (seed, n) ->
      let cfg = config ~table_size:2_048 ~flips:32 ~verify:false () in
      let proto = Protocol.create cfg ~num_dcs:2 ~seed in
      for i = 0 to n - 1 do
        Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "i%d" i)
      done;
      let r = Protocol.run proto in
      (* binomial noise sd = sqrt(96)/2 ~ 5; allow generous 10 sigma *)
      Float.abs (r.Protocol.estimate -. float_of_int n) < 60.0)

(* Determinism regression (torlint's determinism family): the estimate
   must be bit-identical however insertion events were ordered across
   the DCs — slot writes are idempotent set membership, and the CPs'
   noise draws never depend on the item stream. *)
let test_permuted_insertion_order () =
  let items = List.init 120 (fun i -> Printf.sprintf "it%d" i) in
  let run order =
    let proto = Protocol.create (config ()) ~num_dcs:2 ~seed:9 in
    List.iteri (fun i item -> Protocol.insert proto ~dc:(i mod 2) item) order;
    Protocol.run proto
  in
  let forward = run items in
  let backward = run (List.rev items) in
  Alcotest.(check int) "raw nonzero identical" forward.Protocol.raw_nonzero
    backward.Protocol.raw_nonzero;
  Alcotest.(check (float 0.0)) "estimate identical" forward.Protocol.estimate
    backward.Protocol.estimate

let () =
  Alcotest.run "psc"
    [
      ( "item",
        [
          Alcotest.test_case "stable" `Quick test_item_slot_stable;
          Alcotest.test_case "key sensitive" `Quick test_item_slot_key_sensitive;
          Alcotest.test_case "uniform" `Quick test_item_slot_uniform;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "empty union" `Quick test_empty_union;
          Alcotest.test_case "disjoint sets" `Quick test_disjoint_sets_add;
          Alcotest.test_case "overlapping sets" `Quick test_overlapping_sets_union;
          Alcotest.test_case "duplicate idempotent" `Quick test_duplicate_inserts_idempotent;
          Alcotest.test_case "collision correction" `Quick test_collision_correction;
          Alcotest.test_case "noise in raw count" `Quick test_noise_changes_raw_count;
          Alcotest.test_case "proofs verify" `Quick test_proofs_verify;
          Alcotest.test_case "run once" `Quick test_run_once;
          Alcotest.test_case "fast path" `Quick test_no_proofs_fast_path;
          Alcotest.test_case "flips calibration" `Quick test_flips_for_params;
          Alcotest.test_case "monotone estimates" `Quick test_larger_union_estimates_monotone;
          Alcotest.test_case "permuted insertion" `Quick test_permuted_insertion_order;
          Alcotest.test_case "decrypted counts pinned at fixed seeds" `Quick
            test_decrypted_counts_pinned;
          Alcotest.test_case "shuffle outputs pinned at fixed seeds" `Quick
            test_shuffle_outputs_pinned;
        ] );
      ( "failure_injection",
        [
          Alcotest.test_case "byzantine shuffle" `Quick test_byzantine_shuffle_detected;
          Alcotest.test_case "byzantine noise" `Quick test_byzantine_noise_detected;
          Alcotest.test_case "honest run" `Quick test_honest_run_no_culprits;
          Alcotest.test_case "unverified tamper silent" `Quick
            test_tamper_without_verification_goes_unnoticed;
          Alcotest.test_case "short shuffle proof blamed" `Quick
            test_short_shuffle_proof_blamed;
          Alcotest.test_case "short shuffle proof blamed on the bus" `Quick
            test_short_shuffle_proof_blamed_on_bus;
          Alcotest.test_case "malformed shuffle proof blamed" `Quick
            test_malformed_shuffle_proof_blamed;
          Alcotest.test_case "malformed shuffle proof blamed on the bus" `Quick
            test_malformed_shuffle_proof_blamed_on_bus;
          Alcotest.test_case "wrong share vectors blamed" `Quick test_wrong_share_vectors_blamed;
          Alcotest.test_case "wrong share vectors blamed on the bus" `Quick
            test_wrong_share_vectors_blamed_on_bus;
          Alcotest.test_case "decryption proof bytes at jobs 1 and 4" `Quick
            test_decryption_proof_jobs_invariant;
          Alcotest.test_case "shuffle proof bytes at jobs 1 and 4" `Quick
            test_shuffle_proof_jobs_invariant;
        ] );
      ( "components",
        [
          Alcotest.test_case "table structure" `Quick test_table_privacy_structure;
          Alcotest.test_case "bit rerandomization" `Quick test_cp_bit_rerandomization;
          Alcotest.test_case "vector phases = one-lane reference, jobs 1 and 4" `Quick
            test_cp_vector_phases_match_reference;
          Alcotest.test_case "combine size mismatch" `Quick test_combine_size_mismatch_rejected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_estimate_tracks_truth;
            prop_jobs_invariant;
            prop_jobs_invariant_tampered;
            prop_forged_share_blamed;
          ] );
    ]
