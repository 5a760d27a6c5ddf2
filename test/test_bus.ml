(* lib/bus and the deployment runtime: codec/envelope round-trips and
   typed error paths (QCheck), scheduler determinism and seed
   sensitivity, checkpoint persistence, and the deploy scenarios end to
   end — the acceptance criteria of the distributed-deployment work:
   bus-published tallies byte-identical to the in-process pipelines,
   malicious-CP detection with a failed-proof ledger event, and
   restart-from-checkpoint reproducing the benign bytes exactly. *)

let scenario name =
  match Bus.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- envelope codec properties --- *)

let party_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Bus.Party.Ts);
        (3, map (fun i -> Bus.Party.Dc i) (int_bound 50));
        (3, map (fun i -> Bus.Party.Sk i) (int_bound 50));
        (3, map (fun i -> Bus.Party.Cp i) (int_bound 50));
      ])

let envelope_gen =
  QCheck.Gen.(
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    party_gen >>= fun src ->
    party_gen >>= fun dst ->
    string_size ~gen:printable (int_bound 12) >>= fun kind ->
    string_size (int_bound 200) >>= fun body ->
    return { Bus.Envelope.epoch; seq; src; dst; kind; body })

let arb_envelope = QCheck.make ~print:Bus.Envelope.to_string envelope_gen

let prop_envelope_roundtrip =
  QCheck.Test.make ~name:"envelope encode/decode round-trip" ~count:300
    arb_envelope (fun e ->
      match Bus.Envelope.decode (Bus.Envelope.encode e) with
      | Ok e' -> e = e'
      | Error _ -> false)

let prop_envelope_truncated =
  QCheck.Test.make ~name:"every strict prefix decodes to Truncated" ~count:300
    QCheck.(pair arb_envelope small_nat)
    (fun (e, cut) ->
      let s = Bus.Envelope.encode e in
      let cut = cut mod String.length s in
      match Bus.Envelope.decode (String.sub s 0 cut) with
      | Error Bus.Codec.Truncated -> true
      | Ok _ | Error _ -> false)

let prop_envelope_garbage_total =
  QCheck.Test.make ~name:"arbitrary bytes never raise, only typed errors"
    ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s ->
      match Bus.Envelope.decode s with Ok _ -> true | Error _ -> true)

let test_envelope_error_paths () =
  let e =
    {
      Bus.Envelope.epoch = 3;
      seq = 7;
      src = Bus.Party.Dc 1;
      dst = Bus.Party.Ts;
      kind = "pc.dc_report";
      body = "payload";
    }
  in
  let s = Bus.Envelope.encode e in
  (* byte 3 is the version (after the 3-byte magic) *)
  let bumped = Bytes.of_string s in
  Bytes.set bumped 3 (Char.chr 2);
  (match Bus.Envelope.decode (Bytes.to_string bumped) with
  | Error (Bus.Codec.Unsupported_version 2) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version 2");
  let wrong_magic = Bytes.of_string s in
  Bytes.set wrong_magic 0 'X';
  (match Bus.Envelope.decode (Bytes.to_string wrong_magic) with
  | Error Bus.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (match Bus.Envelope.decode (s ^ "\x00") with
  | Error (Bus.Codec.Trailing 1) -> ()
  | _ -> Alcotest.fail "expected Trailing 1")

(* --- varint / zigzag primitives ---

   The readers are the trace replay hot path as well as the bus wire,
   so both edges are pinned: the 7-bit group boundaries and the ends of
   the 63-bit range, which only [zint] can reach (its zigzag image
   fills all 63 bits). *)

let edge_ints = [ 0; 1; 127; 128; 16383; 16384; max_int - 1; max_int ]

let int_gen =
  QCheck.Gen.(
    frequency
      [
        (2, oneofl (edge_ints @ [ -1; -128; -16384; min_int; min_int + 1 ]));
        (3, int);
        (3, small_signed_int);
      ])

let roundtrip write read v =
  let w = Bus.Codec.W.create () in
  write w v;
  let s = Bus.Codec.W.contents w in
  (Bus.Codec.decode s read, String.length s)

let prop_varint_zint_roundtrip =
  QCheck.Test.make ~name:"codec varint/zint round-trip, edges included" ~count:1000
    (QCheck.make ~print:string_of_int int_gen) (fun v ->
      fst (roundtrip Bus.Codec.W.zint Bus.Codec.R.zint v) = Ok v
      && (v < 0 || fst (roundtrip Bus.Codec.W.varint Bus.Codec.R.varint v) = Ok v))

let test_varint_edges () =
  List.iter
    (fun (v, len) ->
      let got, n = roundtrip Bus.Codec.W.varint Bus.Codec.R.varint v in
      Alcotest.(check bool) (Printf.sprintf "varint %d" v) true (got = Ok v);
      Alcotest.(check int) (Printf.sprintf "varint %d length" v) len n)
    [ (0, 1); (127, 1); (128, 2); (16383, 2); (16384, 3); (max_int, 9) ];
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "zint %d" v) true
        (fst (roundtrip Bus.Codec.W.zint Bus.Codec.R.zint v) = Ok v))
    (edge_ints @ [ -1; min_int ]);
  Alcotest.check_raises "negative varint" (Invalid_argument "Codec.W.varint: negative")
    (fun () -> Bus.Codec.W.varint (Bus.Codec.W.create ()) (-1));
  (* ten groups cannot be a 63-bit value: malformed, not truncated or
     wrapped, whatever the tenth byte holds *)
  List.iter
    (fun tail ->
      match Bus.Codec.decode (String.make 9 '\x80' ^ tail) Bus.Codec.R.varint with
      | Error (Bus.Codec.Invalid "varint overflow") -> ()
      | _ -> Alcotest.fail "expected Invalid \"varint overflow\"")
    [ "\x01"; "\x00"; "" ];
  match Bus.Codec.decode "\x80\x80" Bus.Codec.R.varint with
  | Error Bus.Codec.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

(* --- pipeline wire messages --- *)

let check_pc_roundtrip m =
  let bytes = Privcount.Wire.encode m in
  match Privcount.Wire.decode ~kind:(Privcount.Wire.kind m) bytes with
  | Ok m' ->
    Alcotest.(check string) "pc wire round-trip" bytes (Privcount.Wire.encode m')
  | Error e -> Alcotest.failf "pc wire: %s" (Bus.Codec.error_to_string e)

(* one message of every PrivCount kind *)
let pc_samples =
  Privcount.Wire.
    [
      Blind_shares { sk = 1; counters = [| 0; 5; 17; 123456789 |] };
      Report_request;
      Dc_report [ ("exit.bytes", 42); ("exit.circuits", 7) ];
      Sk_report_request { exclude_dcs = [ 0; 2 ] };
      Sk_report [ ("exit.bytes", 99) ];
    ]

let test_privcount_wire () =
  List.iter check_pc_roundtrip pc_samples;
  (match Privcount.Wire.decode ~kind:"psc.table" "" with
  | Error (Bus.Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "unknown kind must be Invalid");
  let results =
    [
      { Privcount.Ts.name = "a"; value = -3.25; sigma = 1.5; ci = Stats.Ci.make (-5.0) 2.0 };
      { Privcount.Ts.name = "b"; value = 1e17; sigma = 0.0; ci = Stats.Ci.make 0.0 0.0 };
    ]
  in
  let bytes = Privcount.Wire.encode_results results in
  match Privcount.Wire.decode_results bytes with
  | Ok rs ->
    Alcotest.(check string) "results round-trip exactly" bytes
      (Privcount.Wire.encode_results rs)
  | Error e -> Alcotest.failf "results: %s" (Bus.Codec.error_to_string e)

(* Real proofs must still verify after crossing the wire: membership
   and structure checks on decode are not allowed to weaken them. *)
let test_psc_wire_proofs () =
  let cp0 = Psc.Cp.create ~id:0 ~seed:42 in
  let cp1 = Psc.Cp.create ~id:1 ~seed:42 in
  let joint =
    Crypto.Elgamal.joint_pub [ Psc.Cp.public_key cp0; Psc.Cp.public_key cp1 ]
  in
  let tab = Crypto.Group.precomp joint in
  let slots = Psc.Cp.noise_slots ~tab cp0 ~joint ~flips:6 in
  (match
     Psc.Wire.decode ~kind:"psc.noise" (Psc.Wire.encode (Psc.Wire.Noise_slots slots))
   with
  | Ok (Psc.Wire.Noise_slots slots') ->
    Alcotest.(check int) "slot count" (Array.length slots) (Array.length slots');
    Array.iter
      (fun (ct, proof) ->
        Alcotest.(check bool) "bit proof verifies after decode" true
          (Crypto.Bit_proof.verify ~pk_tab:tab ~pk:joint ct proof))
      slots'
  | Ok _ -> Alcotest.fail "decoded to the wrong constructor"
  | Error e -> Alcotest.failf "noise: %s" (Bus.Codec.error_to_string e));
  let drbg = Crypto.Drbg.create "test-bus-vector" in
  let input =
    Array.init 8 (fun _ -> Crypto.Elgamal.encrypt drbg joint Crypto.Elgamal.marker)
  in
  let output, proof = Psc.Cp.shuffle cp1 ~joint input in
  (match
     Psc.Wire.decode ~kind:"psc.shuffled"
       (Psc.Wire.encode (Psc.Wire.Shuffled { output; proof = Some proof }))
   with
  | Ok (Psc.Wire.Shuffled { output = output'; proof = Some proof' }) ->
    Alcotest.(check bool) "shuffle proof verifies after decode" true
      (Crypto.Shuffle.verify joint ~input ~output:output' proof')
  | Ok _ -> Alcotest.fail "decoded to the wrong constructor"
  | Error e -> Alcotest.failf "shuffled: %s" (Bus.Codec.error_to_string e));
  let share = Psc.Cp.decrypt_shares cp0 output in
  match
    Psc.Wire.decode ~kind:"psc.decrypt"
      (Psc.Wire.encode
         (Psc.Wire.Decrypt_share { shares = share.Psc.Cp.shares; proof = share.Psc.Cp.proof }))
  with
  | Ok (Psc.Wire.Decrypt_share { shares; proof }) ->
    Alcotest.(check bool) "decryption proof verifies after decode" true
      (Psc.Cp.verify_decryption ~pub:(Psc.Cp.public_key cp0) ~vector:output
         { share with Psc.Cp.shares; proof })
  | Ok _ -> Alcotest.fail "decoded to the wrong constructor"
  | Error e -> Alcotest.failf "decrypt: %s" (Bus.Codec.error_to_string e)

(* --- scheduler determinism --- *)

(* a 4-party token ring: each delivery decrements a ttl and forwards,
   so one run exercises posting from inside handlers *)
let ring_digest ~seed =
  let s = Bus.Sched.create ~seed in
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
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"tok"
    ~body:"25";
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 2) ~kind:"tok"
    ~body:"13";
  let stats = Bus.Sched.run s in
  (Bus.Sched.order_digest s, stats)

let test_sched_determinism () =
  let d1, s1 = ring_digest ~seed:5 in
  let d2, s2 = ring_digest ~seed:5 in
  Alcotest.(check string) "same seed, same delivery order" d1 d2;
  Alcotest.(check int) "same seed, same delivery count" s1.Bus.Sched.delivered
    s2.Bus.Sched.delivered;
  let d3, _ = ring_digest ~seed:6 in
  Alcotest.(check bool) "different seed, different interleaving" true (d1 <> d3)

let test_sched_crash_and_unclaimed () =
  let s = Bus.Sched.create ~seed:1 in
  let hits = ref 0 in
  Bus.Sched.register s (Bus.Party.Dc 0) (fun _ -> incr hits; true);
  Bus.Sched.crash s (Bus.Party.Dc 0);
  Bus.Sched.post s ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"x"
    ~body:"";
  let stats = Bus.Sched.run s in
  Alcotest.(check int) "crashed party's mail dropped" 1 stats.Bus.Sched.dropped;
  Alcotest.(check int) "crashed handler never runs" 0 !hits;
  let s2 = Bus.Sched.create ~seed:1 in
  Bus.Sched.register s2 (Bus.Party.Dc 0) (fun _ -> false);
  Bus.Sched.post s2 ~epoch:0 ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc 0) ~kind:"x"
    ~body:"";
  match Bus.Sched.run s2 with
  | _ -> Alcotest.fail "unclaimed envelope must raise"
  | exception Invalid_argument _ -> ()

(* --- checkpoints --- *)

let sample_checkpoint =
  {
    Bus.Checkpoint.seed = 11;
    scenario = "benign";
    epoch = 1;
    phase = "collect";
    entries =
      [
        { Bus.Checkpoint.party = Bus.Party.Dc 0; state = "\x00binary\xffblob" };
        { Bus.Checkpoint.party = Bus.Party.Sk 1; state = "" };
      ];
  }

let test_checkpoint_roundtrip () =
  let bytes = Bus.Checkpoint.encode sample_checkpoint in
  (match Bus.Checkpoint.decode bytes with
  | Ok cp ->
    Alcotest.(check string) "checkpoint re-encodes identically" bytes
      (Bus.Checkpoint.encode cp);
    Alcotest.(check (option string)) "find dc blob" (Some "\x00binary\xffblob")
      (Bus.Checkpoint.find cp (Bus.Party.Dc 0));
    Alcotest.(check (option string)) "find missing party" None
      (Bus.Checkpoint.find cp (Bus.Party.Cp 0))
  | Error e -> Alcotest.failf "decode: %s" (Bus.Codec.error_to_string e));
  (match Bus.Checkpoint.decode (String.sub bytes 0 (String.length bytes - 1)) with
  | Error Bus.Codec.Truncated -> ()
  | _ -> Alcotest.fail "truncated checkpoint must be Truncated");
  let path = Filename.temp_file "tormeasure-ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes);
      match Bus.Checkpoint.load path with
      | Ok cp ->
        Alcotest.(check string) "file round-trip" bytes (Bus.Checkpoint.encode cp)
      | Error e -> Alcotest.failf "load: %s" (Bus.Codec.error_to_string e));
  match Bus.Checkpoint.load "/nonexistent/tormeasure.ckpt" with
  | Error (Bus.Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "unreadable file must be Invalid"

let test_scenario_catalogue () =
  Alcotest.(check (list string))
    "catalogue names"
    [ "benign"; "dc-crash"; "churn"; "slow-cp"; "malicious-cp"; "restart" ]
    (List.map (fun (s : Bus.Scenario.t) -> s.name) Bus.Scenario.catalogue);
  Alcotest.(check bool) "find hit" true (Bus.Scenario.find "restart" <> None);
  Alcotest.(check bool) "find miss" true (Bus.Scenario.find "nope" = None)

(* --- deploy scenarios end-to-end --- *)

let deploy_cfg ?(epochs = 1) () = Tormeasure.Deploy.default_config ~seed:11 ~epochs ()

let test_deploy_rejects_zero_epochs () =
  match Tormeasure.Deploy.run (deploy_cfg ~epochs:0 ()) (scenario "benign") with
  | _ -> Alcotest.fail "epochs 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* the one comparability rule decides which scenarios the reference
   pipeline accepts *)
let test_reference_comparable_is_acceptance () =
  List.iter
    (fun (s : Bus.Scenario.t) ->
      let accepted =
        match Tormeasure.Deploy.run_reference (deploy_cfg ()) s with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      Alcotest.(check bool) s.name (Bus.Scenario.reference_comparable s) accepted)
    Bus.Scenario.catalogue;
  Alcotest.(check (list string)) "only the DC crash has no in-process equivalent"
    [ "dc-crash" ]
    (List.filter_map
       (fun (s : Bus.Scenario.t) ->
         if Bus.Scenario.reference_comparable s then None else Some s.name)
       Bus.Scenario.catalogue)

let test_deploy_benign_matches_reference () =
  let cfg = deploy_cfg ~epochs:2 () in
  let o = Tormeasure.Deploy.run cfg (scenario "benign") in
  Alcotest.(check string) "bus bytes = in-process bytes"
    (Tormeasure.Deploy.run_reference cfg (scenario "benign"))
    o.Tormeasure.Deploy.digest;
  Alcotest.(check int) "one order digest per epoch" 2
    (List.length o.Tormeasure.Deploy.order_digests);
  Alcotest.(check bool) "no drops in a benign run" true
    (List.for_all (fun (s : Bus.Sched.stats) -> s.dropped = 0) o.Tormeasure.Deploy.stats);
  Alcotest.(check bool) "nothing detected" false o.Tormeasure.Deploy.detected

let test_deploy_jobs_invariance () =
  let cfg = deploy_cfg () in
  let before = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs before)
    (fun () ->
      Parallel.set_jobs 1;
      let d1 = (Tormeasure.Deploy.run cfg (scenario "benign")).Tormeasure.Deploy.digest in
      Parallel.set_jobs 4;
      let d4 = (Tormeasure.Deploy.run cfg (scenario "benign")).Tormeasure.Deploy.digest in
      Alcotest.(check string) "published bytes identical at any pool size" d1 d4)

let test_deploy_dc_crash () =
  let cfg = deploy_cfg () in
  let o = Tormeasure.Deploy.run cfg (scenario "dc-crash") in
  let p = List.hd o.Tormeasure.Deploy.publishes in
  Alcotest.(check (list int)) "DC 1 never reported" [ 1 ]
    p.Tormeasure.Deploy.missing_dcs;
  Alcotest.(check bool) "its mail was dropped" true
    ((List.hd o.Tormeasure.Deploy.stats).Bus.Sched.dropped > 0);
  (* the same events through the in-process round, with the crashed
     DC's post-crash observations lost and its report dropped *)
  let wl = Tormeasure.Deploy.workload cfg ~epoch:0 ~live:cfg.Tormeasure.Deploy.num_dcs in
  let round =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~num_sks:cfg.Tormeasure.Deploy.num_sks
         Tormeasure.Deploy.counter_specs)
      ~num_dcs:cfg.Tormeasure.Deploy.num_dcs ~seed:cfg.Tormeasure.Deploy.seed
  in
  let half = Array.length wl.Tormeasure.Deploy.pc_events / 2 in
  Array.iteri
    (fun i (dc, name, by) ->
      if not (i >= half && dc = 1) then
        Privcount.Deployment.increment round ~dc ~name ~by)
    wl.Tormeasure.Deploy.pc_events;
  Alcotest.(check string) "dropout recovery = in-process dropped_dcs"
    (Privcount.Wire.encode_results (Privcount.Deployment.tally ~dropped_dcs:[ 1 ] round))
    p.Tormeasure.Deploy.pc_bytes

let test_deploy_malicious_cp () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let o = Tormeasure.Deploy.run (deploy_cfg ()) (scenario "malicious-cp") in
      Alcotest.(check bool) "misbehaviour detected" true o.Tormeasure.Deploy.detected;
      Alcotest.(check (list int)) "CP 1 blamed" [ 1 ] o.Tormeasure.Deploy.culprits;
      let p = List.hd o.Tormeasure.Deploy.publishes in
      Alcotest.(check bool) "published result marks failed proofs" false
        p.Tormeasure.Deploy.psc.Psc.Protocol.proofs_ok;
      let failed_shuffle =
        List.exists
          (function
            | Obs.Ledger.Proof { kind = "psc-shuffle"; party = 1; ok = false; _ } ->
              true
            | _ -> false)
          (Obs.Ledger.events ())
      in
      Alcotest.(check bool) "ledger records the failed shuffle proof" true
        failed_shuffle;
      let audit = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "audit fails the run" false audit.Obs.Ledger.ok)

(* Record the run ledger of [f] (telemetry on), restoring the default
   afterwards. *)
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

let test_deploy_malicious_cp_matches_reference () =
  let cfg = deploy_cfg ~epochs:2 () in
  let o = Tormeasure.Deploy.run cfg (scenario "malicious-cp") in
  Alcotest.(check string) "bus bytes = in-process tampered bytes"
    (Tormeasure.Deploy.run_reference cfg (scenario "malicious-cp"))
    o.Tormeasure.Deploy.digest

(* The bus and the in-process round call the same checks, so one
   malicious-CP epoch must record the same PSC proofs on both. *)
let test_deploy_malicious_cp_same_proofs () =
  let cfg = deploy_cfg () in
  let psc_proofs events =
    List.filter_map
      (function
        | Obs.Ledger.Proof { kind; party; ok; batch }
          when String.length kind > 4 && String.sub kind 0 4 = "psc-" ->
          Some (kind, party, ok, batch)
        | _ -> None)
      events
  in
  let _, bus = with_ledger (fun () -> Tormeasure.Deploy.run cfg (scenario "malicious-cp")) in
  let _, inproc =
    with_ledger (fun () ->
        let proto =
          Psc.Protocol.create
            (Psc.Protocol.config ~num_cps:cfg.Tormeasure.Deploy.num_cps
               ~noise_flips_per_cp:cfg.Tormeasure.Deploy.noise_flips_per_cp
               ~tamper:{ Psc.Protocol.tampered_cp = 1; action = `Shuffle_swap }
               ~table_size:cfg.Tormeasure.Deploy.table_size ())
            ~num_dcs:cfg.Tormeasure.Deploy.num_dcs ~seed:cfg.Tormeasure.Deploy.seed
        in
        let wl =
          Tormeasure.Deploy.workload cfg ~epoch:0 ~live:cfg.Tormeasure.Deploy.num_dcs
        in
        Array.iter (fun (dc, item) -> Psc.Protocol.insert proto ~dc item)
          wl.Tormeasure.Deploy.psc_items;
        Psc.Protocol.run proto)
  in
  let bus = psc_proofs bus and inproc = psc_proofs inproc in
  Alcotest.(check int) "key, noise, shuffle and decryption proof per CP" 12
    (List.length inproc);
  Alcotest.(check (list (pair string (pair int (pair bool int)))))
    "same proofs (kind, party, ok, batch)"
    (List.map (fun (k, p, o, b) -> (k, (p, (o, b)))) inproc)
    (List.map (fun (k, p, o, b) -> (k, (p, (o, b)))) bus)

(* A checkpointed PSC table of the wrong size must fail the restore
   with a typed error, not leave the replayed table in place. *)
let test_psc_dc_load_wrong_size () =
  let sched = Bus.Sched.create ~seed:3 in
  let cfg =
    {
      Psc.Node.round =
        Psc.Protocol.config ~num_cps:2 ~noise_flips_per_cp:2
          ~table_size:16 ();
      num_dcs = 1;
      seed = 3;
    }
  in
  ignore (Psc.Node.spawn_ts sched cfg : Psc.Node.ts);
  for id = 0 to 1 do
    Psc.Node.spawn_cp sched ~epoch:0 cfg ~id
  done;
  let dc = Psc.Node.spawn_dc sched cfg ~id:0 in
  ignore (Bus.Sched.run sched : Bus.Sched.stats);
  let before = Psc.Node.dc_state dc in
  let short =
    match Psc.Wire.decode ~kind:"psc.table" before with
    | Ok (Psc.Wire.Table_submit slots) ->
      Psc.Wire.encode (Psc.Wire.Table_submit (Array.sub slots 0 3))
    | _ -> Alcotest.fail "dc_state must decode as a table"
  in
  let r, events = with_ledger (fun () -> Psc.Node.dc_load dc short) in
  (match r with
  | Error (Bus.Codec.Invalid _) -> ()
  | _ -> Alcotest.fail "a 3-slot blob into a 16-slot DC must be Error Invalid");
  Alcotest.(check string) "table left untouched" before (Psc.Node.dc_state dc);
  Alcotest.(check bool) "ledger records the failed restore proof" true
    (List.exists
       (function
         | Obs.Ledger.Proof { kind = "bus-restore-dc"; ok = false; batch = 3; _ } -> true
         | _ -> false)
       events)

let test_deploy_restart_byte_identical () =
  let cfg = deploy_cfg ~epochs:2 () in
  let benign = Tormeasure.Deploy.run cfg (scenario "benign") in
  let restarted = Tormeasure.Deploy.run cfg (scenario "restart") in
  Alcotest.(check int) "one restart happened" 1 restarted.Tormeasure.Deploy.restarts;
  Alcotest.(check string) "restart reproduces the benign bytes exactly"
    benign.Tormeasure.Deploy.digest restarted.Tormeasure.Deploy.digest;
  Alcotest.(check (list string)) "even the delivery order replays"
    benign.Tormeasure.Deploy.order_digests restarted.Tormeasure.Deploy.order_digests;
  match restarted.Tormeasure.Deploy.last_checkpoint with
  | None -> Alcotest.fail "no checkpoint captured"
  | Some cp ->
    Alcotest.(check int) "last checkpoint is the final epoch's" 1
      cp.Bus.Checkpoint.epoch;
    (* 3 DC entries (both pipelines in one blob) + 2 SK entries *)
    Alcotest.(check int) "entries cover every stateful party" 5
      (List.length cp.Bus.Checkpoint.entries)

let test_deploy_slow_cp_schedule_only () =
  let cfg = deploy_cfg () in
  let benign = Tormeasure.Deploy.run cfg (scenario "benign") in
  let slow = Tormeasure.Deploy.run cfg (scenario "slow-cp") in
  Alcotest.(check string) "same published bytes" benign.Tormeasure.Deploy.digest
    slow.Tormeasure.Deploy.digest;
  Alcotest.(check bool) "but a different delivery schedule" true
    (benign.Tormeasure.Deploy.order_digests <> slow.Tormeasure.Deploy.order_digests)

let test_deploy_churn_matches_reference () =
  let cfg = deploy_cfg ~epochs:2 () in
  let o = Tormeasure.Deploy.run cfg (scenario "churn") in
  Alcotest.(check string) "per-epoch deployment sizes re-derive in-process"
    (Tormeasure.Deploy.run_reference cfg (scenario "churn"))
    o.Tormeasure.Deploy.digest

(* --- byte-identity pins ---

   The tests above compare the bus with the in-process pipelines, so a
   deterministic drift in a shared primitive (the hash core, a DRBG
   stream, a codec) would move both sides together and pass. These
   pin absolute bytes: a small verified PSC round's encoded result,
   and the published deploy digests at seed 11. *)

let test_psc_result_pin () =
  let cfg =
    Psc.Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
      ()
  in
  let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed:7 in
  for i = 0 to 39 do
    Psc.Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "10.0.%d.%d" (i / 7) i)
  done;
  let result = Psc.Protocol.run proto in
  Alcotest.(check bool) "proofs verified" true result.Psc.Protocol.proofs_ok;
  Alcotest.(check string) "sha256 of the encoded result"
    "51cc3b756875d9c0e051791e0cee92a60293bae171d61fe8e41af8edb4e3a5de"
    (Crypto.Sha256.hex (Psc.Wire.encode_result result))

let test_deploy_digest_pins () =
  List.iter
    (fun (name, want) ->
      Alcotest.(check string) name want
        (Tormeasure.Deploy.run (deploy_cfg ()) (scenario name)).Tormeasure.Deploy.digest)
    [
      ("benign", "a703784114412f64e2d338689d304a0b682adde9dc0a2eb20c086c2a190c0570");
      ("malicious-cp", "0f68a1416f049420e340b48d184c458d2af8b243a3bf612483e488e3e5a41d43");
    ]

let test_deploy_order_digest_pins () =
  List.iter
    (fun (name, epochs, want) ->
      Alcotest.(check (list string)) name want
        (Tormeasure.Deploy.run (deploy_cfg ~epochs ()) (scenario name))
          .Tormeasure.Deploy.order_digests)
    [
      ( "benign",
        2,
        [
          "da469940880a6f2c705129587891105da739632e280e28374b9dd4b2387f85f9";
          "17caa6d585797d72165b24db694d83a567623a1b460bef5c17185993e04bf503";
        ] );
      ( "malicious-cp",
        1,
        [ "3a3bb50795f8e85af91470f2852e5afc5df3486dc6643a98d80d9cf90b227ddf" ] );
    ]

(* --- decoder fuzzing: per-protocol wire bodies and checkpoints ---

   Each sample PSC message is also written out by hand as a list of
   fields. That pins the layout, and it names every group-element
   position, so a non-member can be planted at each one in turn. *)

type field = Elt of int | Var of int | Byte of int

let write_fields fields =
  let w = Bus.Codec.W.create () in
  List.iter
    (function Elt v | Var v -> Bus.Codec.W.varint w v | Byte v -> Bus.Codec.W.u8 w v)
    fields;
  Bus.Codec.W.contents w

let elt e = Elt (Crypto.Group.elt_to_int e)
let var_exp e = Var (Crypto.Group.exp_to_int e)

let cts_fields cts =
  Var (Array.length cts)
  :: List.concat_map
       (fun ct -> [ elt ct.Crypto.Elgamal.c1; elt ct.Crypto.Elgamal.c2 ])
       (Array.to_list cts)

(* 5n + 9 ints: 3n + 5 elements, then 2n + 4 exponents *)
let shuffle_proof_fields ints =
  let n = (Array.length ints - 9) / 5 in
  List.mapi (fun i v -> if i < (3 * n) + 5 then Elt v else Var v) (Array.to_list ints)

let psc_fields = function
  | Psc.Wire.Cp_key { pub; proof } ->
    [ elt pub; elt proof.Crypto.Sigma.commitment; var_exp proof.Crypto.Sigma.response ]
  | Psc.Wire.Joint { joint } -> [ elt joint ]
  | Psc.Wire.Table_request -> []
  | Psc.Wire.Table_submit cts
  | Psc.Wire.Shuffle_request cts
  | Psc.Wire.Rerand_request cts
  | Psc.Wire.Rerandomized cts
  | Psc.Wire.Decrypt_request cts ->
    cts_fields cts
  | Psc.Wire.Noise_request { flips } -> [ Var flips ]
  | Psc.Wire.Noise_slots slots ->
    (* a bit proof is (a1, a2, e, z) per branch *)
    Var (Array.length slots)
    :: List.concat_map
         (fun (ct, proof) ->
           [ elt ct.Crypto.Elgamal.c1; elt ct.Crypto.Elgamal.c2 ]
           @ List.mapi
               (fun i v -> if i mod 4 < 2 then Elt v else Var v)
               (Array.to_list (Crypto.Bit_proof.to_ints proof)))
         (Array.to_list slots)
  | Psc.Wire.Shuffled { output; proof = None } -> cts_fields output @ [ Byte 0 ]
  | Psc.Wire.Shuffled { output; proof = Some p } ->
    let ints = Crypto.Shuffle.proof_to_ints p in
    cts_fields output @ (Byte 1 :: Var (Array.length ints) :: shuffle_proof_fields ints)
  | Psc.Wire.Decrypt_share { shares; proof } ->
    (Var (Array.length shares) :: List.map elt (Array.to_list shares))
    @
    (match proof with
    | None -> [ Byte 0 ]
    | Some p ->
      [ Byte 1; elt p.Crypto.Sigma.a1; elt p.Crypto.Sigma.a2; var_exp p.Crypto.Sigma.z ])

(* one message of every PSC kind, from real keys and proofs *)
let psc_samples =
  lazy
    (let cp0 = Psc.Cp.create ~id:0 ~seed:7 and cp1 = Psc.Cp.create ~id:1 ~seed:7 in
     let joint = Crypto.Elgamal.joint_pub [ Psc.Cp.public_key cp0; Psc.Cp.public_key cp1 ] in
     let drbg = Crypto.Drbg.create "test-bus-fuzz" in
     let cts =
       Array.init 3 (fun i ->
           Crypto.Elgamal.encrypt drbg joint
             (if i = 1 then Crypto.Elgamal.marker else Crypto.Elgamal.one))
     in
     let output, proof = Psc.Cp.shuffle cp0 ~joint cts in
     let share = Psc.Cp.decrypt_shares cp1 output in
     Psc.Wire.
       [
         Cp_key { pub = Psc.Cp.public_key cp0; proof = Psc.Cp.key_proof cp0 };
         Joint { joint };
         Table_request;
         Table_submit cts;
         Noise_request { flips = 5 };
         Noise_slots (Psc.Cp.noise_slots cp0 ~joint ~flips:2);
         Shuffle_request cts;
         Shuffled { output; proof = Some proof };
         Shuffled { output; proof = None };
         Rerand_request output;
         Rerandomized (Psc.Cp.rerandomize_bits cp1 output);
         Decrypt_request output;
         Decrypt_share { shares = share.Psc.Cp.shares; proof = share.Psc.Cp.proof };
         Decrypt_share { shares = share.Psc.Cp.shares; proof = None };
       ])

let psc_kinds = List.sort_uniq compare (List.map Psc.Wire.kind (Lazy.force psc_samples))

let pc_kinds = List.map Privcount.Wire.kind pc_samples

(* every decoder of outside bytes, by name *)
let decoders =
  List.map (fun k -> ("psc " ^ k, fun s -> Result.map ignore (Psc.Wire.decode ~kind:k s))) psc_kinds
  @ List.map
      (fun k -> ("pc " ^ k, fun s -> Result.map ignore (Privcount.Wire.decode ~kind:k s)))
      pc_kinds
  @ [
      ("psc result", fun s -> Result.map ignore (Psc.Wire.decode_result s));
      ("pc results", fun s -> Result.map ignore (Privcount.Wire.decode_results s));
      ("checkpoint", fun s -> Result.map ignore (Bus.Checkpoint.decode s));
    ]

(* every valid sample body, as (decoder name, bytes) *)
let valid_bodies () =
  let psc_result =
    {
      Psc.Protocol.raw_nonzero = 12;
      total_flips = 64;
      estimate = 11.5;
      ci = Stats.Ci.make 3.25 19.0;
      proofs_ok = false;
      culprits = [ 1; 2 ];
    }
  in
  let pc_results =
    [ { Privcount.Ts.name = "a"; value = -3.25; sigma = 1.5; ci = Stats.Ci.make (-5.0) 2.0 } ]
  in
  List.map (fun m -> ("psc " ^ Psc.Wire.kind m, Psc.Wire.encode m)) (Lazy.force psc_samples)
  @ List.map (fun m -> ("pc " ^ Privcount.Wire.kind m, Privcount.Wire.encode m)) pc_samples
  @ [
      ("psc result", Psc.Wire.encode_result psc_result);
      ("pc results", Privcount.Wire.encode_results pc_results);
      ("checkpoint", Bus.Checkpoint.encode sample_checkpoint);
    ]

let decoder name = List.assoc name decoders

let prop_decoders_garbage_total =
  QCheck.Test.make ~name:"wire bodies and checkpoints: arbitrary bytes never raise" ~count:2000
    QCheck.(pair (int_bound 1000) (string_of_size (QCheck.Gen.int_bound 80)))
    (fun (k, s) ->
      let _, decode = List.nth decoders (k mod List.length decoders) in
      ignore (decode s);
      true)

(* garbage rarely gets past the first count; mutating one byte of a
   valid body reaches every later field *)
let prop_decoders_mutation_total =
  QCheck.Test.make ~name:"wire bodies and checkpoints: one mutated byte never raises"
    ~count:2000
    QCheck.(triple (int_bound 1000) small_nat (int_bound 255))
    (fun (k, pos, byte) ->
      let bodies = valid_bodies () in
      let name, body = List.nth bodies (k mod List.length bodies) in
      if body = "" then true
      else begin
        let b = Bytes.of_string body in
        Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        ignore (decoder name (Bytes.to_string b));
        true
      end)

let test_decoders_roundtrip_and_prefixes () =
  List.iter
    (fun (name, body) ->
      Alcotest.(check bool) (name ^ " decodes") true (decoder name body = Ok ());
      for cut = 0 to String.length body - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s: prefix of %d bytes is Truncated" name cut)
          true
          (decoder name (String.sub body 0 cut) = Error Bus.Codec.Truncated)
      done)
    (valid_bodies ())

let test_psc_wire_non_member_positions () =
  List.iter
    (fun m ->
      let kind = Psc.Wire.kind m in
      let fields = psc_fields m in
      Alcotest.(check string) (kind ^ ": field layout") (Psc.Wire.encode m) (write_fields fields);
      let planted = ref 0 in
      List.iteri
        (fun k f ->
          match f with
          | Elt _ ->
            (* p - 1 = -1 is in range but not a square; 2^40 is out of range *)
            let bad = if k land 1 = 0 then Crypto.Group.p - 1 else 1 lsl 40 in
            incr planted;
            let body = write_fields (List.mapi (fun j f -> if j = k then Elt bad else f) fields) in
            (match Psc.Wire.decode ~kind body with
            | Error (Bus.Codec.Invalid _) -> ()
            | Ok _ -> Alcotest.failf "%s: non-member at field %d accepted" kind k
            | Error e ->
              Alcotest.failf "%s: non-member at field %d: %s" kind k
                (Bus.Codec.error_to_string e))
          | Var _ | Byte _ -> ())
        fields;
      let has_elements = match m with Psc.Wire.Table_request | Psc.Wire.Noise_request _ -> false | _ -> true in
      Alcotest.(check bool) (kind ^ ": has element positions") has_elements (!planted > 0))
    (Lazy.force psc_samples)

(* A length prefix may claim far more elements than the body holds;
   the decoder must fail without allocating for the claim. *)
let test_hostile_counts_bounded () =
  let varint v =
    let w = Bus.Codec.W.create () in
    Bus.Codec.W.varint w v;
    Bus.Codec.W.contents w
  in
  let check name decode body =
    let before = Gc.allocated_bytes () in
    let got = decode body in
    let used = Gc.allocated_bytes () -. before in
    Alcotest.(check bool) (name ^ " is Truncated") true (got = Error Bus.Codec.Truncated);
    Alcotest.(check bool) (Printf.sprintf "%s allocates under 1 MiB (%.0f B)" name used) true
      (used < 1048576.0)
  in
  (* empty output, proof tag 1, then 2^26 proof ints *)
  let shuffled = "\x00\x01" ^ varint (1 lsl 26) in
  Alcotest.(check int) "shuffled body is 6 bytes" 6 (String.length shuffled);
  check "psc.shuffled claiming 2^26 ints" (decoder "psc psc.shuffled") shuffled;
  check "psc.shuffled claiming a 2^20-slot proof" (decoder "psc psc.shuffled")
    ("\x00\x01" ^ varint ((5 lsl 20) + 9));
  check "psc.table claiming 2^22 ciphertexts" (decoder "psc psc.table") (varint (1 lsl 22));
  check "pc.blind claiming 2^24 counters" (decoder "pc pc.blind") ("\x00" ^ varint (1 lsl 24));
  (* magic, version, seed, shard, shards, no config, no tallies, then
     2^40 countries of which one is present *)
  let segment = "TMT\x01\x00\x00\x01\x00\x00" ^ varint (1 lsl 40) ^ "\x02US" in
  Alcotest.(check int) "segment header is 18 bytes" 18 (String.length segment);
  check "Evtrace segment claiming 2^40 countries"
    (fun s -> Result.map ignore (Evtrace.Segment.decode s))
    segment

let () =
  Alcotest.run "bus"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_envelope_roundtrip;
          QCheck_alcotest.to_alcotest prop_envelope_truncated;
          QCheck_alcotest.to_alcotest prop_envelope_garbage_total;
          Alcotest.test_case "version/magic/trailing errors" `Quick
            test_envelope_error_paths;
          QCheck_alcotest.to_alcotest prop_varint_zint_roundtrip;
          Alcotest.test_case "varint edges and overflow" `Quick test_varint_edges;
        ] );
      ( "wire",
        [
          Alcotest.test_case "privcount messages" `Quick test_privcount_wire;
          Alcotest.test_case "psc proofs survive the wire" `Quick
            test_psc_wire_proofs;
          Alcotest.test_case "bodies decode; every strict prefix is an error" `Quick
            test_decoders_roundtrip_and_prefixes;
          Alcotest.test_case "psc non-member at every element position" `Quick
            test_psc_wire_non_member_positions;
          Alcotest.test_case "hostile counts allocate nothing" `Quick
            test_hostile_counts_bounded;
          QCheck_alcotest.to_alcotest prop_decoders_garbage_total;
          QCheck_alcotest.to_alcotest prop_decoders_mutation_total;
        ] );
      ( "sched",
        [
          Alcotest.test_case "seeded determinism" `Quick test_sched_determinism;
          Alcotest.test_case "crash and unclaimed mail" `Quick
            test_sched_crash_and_unclaimed;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "round-trip and files" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "scenario catalogue" `Quick test_scenario_catalogue;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "zero epochs rejected" `Quick test_deploy_rejects_zero_epochs;
          Alcotest.test_case "reference_comparable = run_reference accepts" `Quick
            test_reference_comparable_is_acceptance;
          Alcotest.test_case "benign = in-process bytes" `Quick
            test_deploy_benign_matches_reference;
          Alcotest.test_case "pool-size invariance" `Quick test_deploy_jobs_invariance;
          Alcotest.test_case "dc-crash dropout recovery" `Quick test_deploy_dc_crash;
          Alcotest.test_case "malicious CP detected" `Quick test_deploy_malicious_cp;
          Alcotest.test_case "malicious CP = in-process tampered bytes" `Quick
            test_deploy_malicious_cp_matches_reference;
          Alcotest.test_case "malicious CP: same proofs on bus and in-process" `Quick
            test_deploy_malicious_cp_same_proofs;
          Alcotest.test_case "psc dc_load rejects a wrong-size table" `Quick
            test_psc_dc_load_wrong_size;
          Alcotest.test_case "restart byte-identical" `Quick
            test_deploy_restart_byte_identical;
          Alcotest.test_case "slow CP changes schedule only" `Quick
            test_deploy_slow_cp_schedule_only;
          Alcotest.test_case "churn = in-process bytes" `Quick
            test_deploy_churn_matches_reference;
        ] );
      ( "pins",
        [
          Alcotest.test_case "psc encoded result" `Quick test_psc_result_pin;
          Alcotest.test_case "deploy digests at seed 11" `Quick test_deploy_digest_pins;
          Alcotest.test_case "deploy order digests at seed 11" `Quick
            test_deploy_order_digest_pins;
        ] );
    ]
