open Torsim

let rng () = Prng.Rng.create 17

let small_consensus ?(relays = 120) () =
  Netgen.generate ~config:{ Netgen.default with Netgen.relays } (rng ())

(* --- relays and consensus --- *)

let test_relay_weights () =
  let guard = Relay.make ~id:0 ~nickname:"g" ~bandwidth:100.0 ~guard:true ~exit:false ~hsdir:true in
  Alcotest.(check (float 1e-9)) "guard position" (100.0 *. Relay.wgg) (Relay.guard_weight guard);
  Alcotest.(check (float 1e-9)) "guard middle share" (100.0 *. (1.0 -. Relay.wgg))
    (Relay.middle_weight guard);
  Alcotest.(check (float 0.0)) "guard exit weight" 0.0 (Relay.exit_weight guard);
  Alcotest.(check bool) "hsdir" true (Relay.is_hsdir guard);
  let exit = Relay.make ~id:1 ~nickname:"e" ~bandwidth:50.0 ~guard:false ~exit:true ~hsdir:false in
  Alcotest.(check (float 0.0)) "exit weight" 50.0 (Relay.exit_weight exit);
  Alcotest.(check (float 0.0)) "exit middle weight" 0.0 (Relay.middle_weight exit);
  let middle = Relay.make ~id:2 ~nickname:"m" ~bandwidth:30.0 ~guard:false ~exit:false ~hsdir:false in
  Alcotest.(check (float 0.0)) "pure middle" 30.0 (Relay.middle_weight middle);
  (* exit bandwidth is reserved: a guard+exit relay serves exits only *)
  let both = Relay.make ~id:3 ~nickname:"b" ~bandwidth:80.0 ~guard:true ~exit:true ~hsdir:false in
  Alcotest.(check (float 0.0)) "both: no guard duty" 0.0 (Relay.guard_weight both);
  Alcotest.(check (float 0.0)) "both: exit duty" 80.0 (Relay.exit_weight both)

let test_relay_rejects_nonpositive_bandwidth () =
  Alcotest.check_raises "bad bandwidth" (Invalid_argument "Relay.make: bandwidth must be positive")
    (fun () ->
      ignore (Relay.make ~id:0 ~nickname:"x" ~bandwidth:0.0 ~guard:true ~exit:true ~hsdir:true))

let test_consensus_roles_nonempty () =
  let c = small_consensus () in
  Alcotest.(check bool) "guards" true (Array.length (Consensus.guard_ids c) > 0);
  Alcotest.(check bool) "exits" true
    (Array.exists (fun r -> r.Relay.flags.Relay.exit) (Consensus.relays c));
  Alcotest.(check bool) "hsdirs" true (Array.length (Consensus.hsdir_ids c) > 0)

let test_consensus_sampling_respects_flags () =
  let c = small_consensus () in
  let r = rng () in
  for _ = 1 to 500 do
    let g = Consensus.sample_guard c r in
    if not (Consensus.relay c g).Relay.flags.Relay.guard then Alcotest.fail "non-guard sampled";
    let e = Consensus.sample_exit c r in
    if not (Consensus.relay c e).Relay.flags.Relay.exit then Alcotest.fail "non-exit sampled"
  done

let test_consensus_weighted_sampling () =
  (* a relay with overwhelming weight should dominate samples *)
  let relays =
    Array.init 10 (fun id ->
        Relay.make ~id ~nickname:(string_of_int id)
          ~bandwidth:(if id = 0 then 10_000.0 else 1.0)
          ~guard:true ~exit:(id = 9) ~hsdir:false)
  in
  let c = Consensus.create relays in
  let r = rng () in
  let hits = ref 0 in
  for _ = 1 to 1_000 do
    if Consensus.sample_guard c r = 0 then incr hits
  done;
  Alcotest.(check bool) "heavy relay dominates" true (!hits > 950)

let test_fractions_sum () =
  let c = small_consensus () in
  let all_guards = Array.to_list (Consensus.guard_ids c) in
  Alcotest.(check (float 1e-9)) "all guards = 1" 1.0 (Consensus.guard_fraction c all_guards);
  Alcotest.(check (float 1e-9)) "none = 0" 0.0 (Consensus.guard_fraction c [])

let test_pick_observers_by_weight () =
  let c = small_consensus ~relays:300 () in
  let r = rng () in
  let ids = Consensus.pick_observers_by_weight c r ~role:`Exit ~target_fraction:0.05 in
  let f = Consensus.exit_fraction c ids in
  Alcotest.(check bool) "reaches target" true (f >= 0.05);
  (* greedy selection should not wildly overshoot on a 300-relay net *)
  Alcotest.(check bool) "not far past target" true (f < 0.6)

let test_consensus_dense_ids_required () =
  let relays =
    [| Relay.make ~id:5 ~nickname:"x" ~bandwidth:1.0 ~guard:true ~exit:true ~hsdir:true |]
  in
  Alcotest.check_raises "dense ids" (Invalid_argument "Consensus.create: ids must be dense 0..n-1")
    (fun () -> ignore (Consensus.create relays))

(* --- hsdir ring --- *)

let test_ring_responsible_count () =
  let c = small_consensus () in
  let ring = Hsdir_ring.create ~replicas:2 ~spread:3 (Consensus.hsdir_ids c) in
  let resp = Hsdir_ring.responsible ring "abcdef.onion" in
  Alcotest.(check bool) "at most slots" true (List.length resp <= 2 * 3);
  Alcotest.(check bool) "at least spread" true (List.length resp >= 3);
  (* all distinct *)
  Alcotest.(check int) "distinct" (List.length resp)
    (List.length (List.sort_uniq compare resp))

let test_ring_deterministic () =
  let c = small_consensus () in
  let ring = Hsdir_ring.create (Consensus.hsdir_ids c) in
  Alcotest.(check (list int)) "stable responsibility"
    (Hsdir_ring.responsible ring "x.onion")
    (Hsdir_ring.responsible ring "x.onion")

let test_ring_members_are_hsdirs () =
  let c = small_consensus () in
  let hsdirs = Consensus.hsdir_ids c in
  let ring = Hsdir_ring.create hsdirs in
  List.iter
    (fun id ->
      if not (Array.mem id hsdirs) then Alcotest.fail "responsible relay is not an HSDir")
    (Hsdir_ring.responsible ring "y.onion")

let test_ring_visibility_bounds () =
  let c = small_consensus ~relays:200 () in
  let hsdirs = Consensus.hsdir_ids c in
  let ring = Hsdir_ring.create hsdirs in
  let observers = Array.to_list (Array.sub hsdirs 0 5) in
  let fetch = Hsdir_ring.fetch_visibility ~samples:5_000 ring observers in
  let publish = Hsdir_ring.publish_visibility ~samples:5_000 ring observers in
  Alcotest.(check bool) "fetch in (0,1)" true (fetch > 0.0 && fetch < 1.0);
  Alcotest.(check bool) "publish >= fetch" true (publish >= fetch);
  Alcotest.(check (float 1e-9)) "all observers publish = 1" 1.0
    (Hsdir_ring.publish_visibility ~samples:500 ring (Array.to_list hsdirs));
  Alcotest.(check (float 1e-9)) "no observers = 0" 0.0
    (Hsdir_ring.fetch_visibility ~samples:500 ring [])

let test_ring_fetch_visibility_matches_empirical () =
  (* the analytical visibility must predict the rate at which actual
     fetch events land at the observers *)
  let c = small_consensus ~relays:200 () in
  let e = Engine.create ~seed:5 c in
  let ring = Engine.hsdir_ring e in
  let hsdirs = Consensus.hsdir_ids c in
  let observers = Array.to_list (Array.sub hsdirs 0 8) in
  let predicted = Hsdir_ring.fetch_visibility ~samples:10_000 ring observers in
  let seen = ref 0 in
  List.iter
    (fun id ->
      Engine.add_sink e id (fun ev ->
          match ev with Event.Descriptor_fetch _ -> incr seen | _ -> ()))
    observers;
  let n = 20_000 in
  for i = 0 to n - 1 do
    Engine.fetch_descriptor e ~address:(Onion.bogus_address i)
  done;
  let empirical = float_of_int !seen /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.4f vs empirical %.4f" predicted empirical)
    true
    (Float.abs (predicted -. empirical) < 0.01)

let test_exit_visit_third_party_dest () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let r = rng () in
  let client = Client.make_selective c r ~ip:7 ~country:"US" ~asn:42 ~g:1 in
  Engine.exit_visit e client ~dest:(Event.Hostname "page.com") ~port:443
    ~subsequent_streams:3
    ~subsequent_dest:(fun i -> (Event.Hostname (Printf.sprintf "cdn%d.com" i), 443))
    ~bytes:1.0 ();
  let t = Engine.truth e in
  (* only the initial stream's hostname counts as a unique (primary) domain *)
  Alcotest.(check int) "one primary domain" 1 (Hashtbl.length t.Ground_truth.unique_domains);
  Alcotest.(check int) "four streams total" 4 t.Ground_truth.streams_total

let test_ring_balanced () =
  (* over many descriptors, responsibility should spread over the ring *)
  let c = small_consensus ~relays:200 () in
  let ring = Hsdir_ring.create (Consensus.hsdir_ids c) in
  let counts = Hashtbl.create 64 in
  for i = 0 to 999 do
    List.iter
      (fun id ->
        Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
      (Hsdir_ring.responsible ring (Onion.address_of_index i))
  done;
  Alcotest.(check bool) "most hsdirs used" true
    (Hashtbl.length counts > Hsdir_ring.size ring / 2)

(* --- clients --- *)

let test_selective_client_guard_count () =
  let c = small_consensus () in
  let r = rng () in
  let client = Client.make_selective c r ~ip:1 ~country:"US" ~asn:1 ~g:3 in
  Alcotest.(check int) "three guard draws" 3 (Array.length client.Client.guards);
  Array.iter
    (fun id ->
      if not (Consensus.relay c id).Relay.flags.Relay.guard then
        Alcotest.fail "non-guard in guard set")
    client.Client.guards

let test_selective_visibility_model () =
  (* the inference model: a relay set with guard-weight fraction f sees
     a g-guard client with probability 1 - (1-f)^g *)
  let c = small_consensus ~relays:300 () in
  let r = rng () in
  let observers = Consensus.pick_observers_by_weight c r ~role:`Guard ~target_fraction:0.1 in
  let f = Consensus.guard_fraction c observers in
  let g = 3 in
  let n = 40_000 in
  let seen = ref 0 in
  for i = 1 to n do
    let client = Client.make_selective c r ~ip:i ~country:"US" ~asn:1 ~g in
    if Array.exists (fun id -> List.mem id observers) client.Client.guards then incr seen
  done;
  let empirical = float_of_int !seen /. float_of_int n in
  let predicted = 1.0 -. ((1.0 -. f) ** float_of_int g) in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.4f vs predicted %.4f" empirical predicted)
    true
    (Float.abs (empirical -. predicted) < 0.01)

let test_promiscuous_client_all_guards () =
  let c = small_consensus () in
  let client = Client.make_promiscuous c ~ip:2 ~country:"DE" ~asn:2 in
  Alcotest.(check int) "all guards" (Array.length (Consensus.guard_ids c))
    (Array.length client.Client.guards)

(* --- engine + ground truth --- *)

let make_engine () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let r = rng () in
  let client = Client.make_selective c r ~ip:7 ~country:"US" ~asn:42 ~g:3 in
  (e, client)

let test_engine_truth_connections () =
  let e, client = make_engine () in
  for _ = 1 to 10 do
    Engine.connect e client
  done;
  let t = Engine.truth e in
  Alcotest.(check int) "connections" 10 t.Ground_truth.connections;
  Alcotest.(check int) "one unique ip" 1 (Ground_truth.unique_clients t);
  Alcotest.(check int) "per-country" 10 !(Hashtbl.find t.Ground_truth.per_country_connections "US")

let test_engine_truth_streams () =
  let e, client = make_engine () in
  Engine.exit_visit e client ~dest:(Event.Hostname "a.com") ~port:443 ~subsequent_streams:4
    ~bytes:100.0 ();
  Engine.exit_visit e client ~dest:Event.Ipv4_literal ~port:80 ~subsequent_streams:0 ~bytes:50.0 ();
  Engine.exit_visit e client ~dest:(Event.Hostname "b.com") ~port:22 ~subsequent_streams:1
    ~bytes:10.0 ();
  let t = Engine.truth e in
  Alcotest.(check int) "total streams" 8 t.Ground_truth.streams_total;
  Alcotest.(check int) "initial" 3 t.Ground_truth.streams_initial;
  Alcotest.(check int) "hostname" 2 t.Ground_truth.initial_hostname;
  Alcotest.(check int) "ipv4" 1 t.Ground_truth.initial_ipv4;
  Alcotest.(check int) "web" 1 t.Ground_truth.hostname_web;
  Alcotest.(check int) "other port" 1 t.Ground_truth.hostname_other_port;
  Alcotest.(check int) "unique domains (web only)" 1 (Hashtbl.length t.Ground_truth.unique_domains);
  Alcotest.(check (float 0.001)) "exit bytes" 160.0 t.Ground_truth.exit_bytes

let test_engine_sink_delivery () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let r = rng () in
  let client = Client.make_selective c r ~ip:7 ~country:"US" ~asn:42 ~g:1 in
  let guard = Client.primary_guard client in
  let seen = ref 0 in
  Engine.add_sink e guard (fun _ -> incr seen);
  for _ = 1 to 5 do
    Engine.data_circuit e client
  done;
  Alcotest.(check int) "sink saw all" 5 !seen

let test_engine_sink_only_at_registered_relay () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let r = rng () in
  let client = Client.make_selective c r ~ip:7 ~country:"US" ~asn:42 ~g:1 in
  let guard = Client.primary_guard client in
  let other = (guard + 1) mod Consensus.size c in
  let seen = ref 0 in
  Engine.add_sink e other (fun ev -> match ev with Event.Client_circuit _ -> incr seen | _ -> ());
  Engine.data_circuit e client;
  Alcotest.(check int) "no event at other relay" 0 !seen

let test_descriptor_publish_fetch () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let registry = Engine.onion_registry e in
  let service = Onion.add registry ~public:true in
  (* fetch before publish fails *)
  Engine.fetch_descriptor e ~address:service.Onion.address;
  Engine.publish_descriptor e ~address:service.Onion.address ~first_publish:true;
  Engine.fetch_descriptor e ~address:service.Onion.address;
  Engine.fetch_descriptor e ~address:(Onion.bogus_address 1);
  Engine.fetch_malformed e;
  let t = Engine.truth e in
  Alcotest.(check int) "fetches" 4 t.Ground_truth.descriptor_fetches;
  Alcotest.(check int) "ok" 1 t.Ground_truth.descriptor_fetch_ok;
  Alcotest.(check int) "failed" 3 t.Ground_truth.descriptor_fetch_failed;
  Alcotest.(check int) "published unique" 1 (Ground_truth.unique_published_onions t);
  Alcotest.(check int) "fetched unique" 1 (Ground_truth.unique_fetched_onions t)

let test_descriptor_event_at_responsible_hsdir () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  let ring = Engine.hsdir_ring e in
  let address = "probe.onion" in
  let responsible = Hsdir_ring.responsible ring address in
  let seen = ref 0 in
  List.iter
    (fun id ->
      Engine.add_sink e id (fun ev ->
          match ev with Event.Descriptor_published _ -> incr seen | _ -> ()))
    responsible;
  Engine.publish_descriptor e ~address ~first_publish:true;
  Alcotest.(check int) "stored at every responsible hsdir" (List.length responsible) !seen

let test_rendezvous_truth () =
  let c = small_consensus () in
  let e = Engine.create ~seed:3 c in
  Engine.rendezvous e ~outcome:(Event.Rend_success { cells = 100 });
  Engine.rendezvous e ~outcome:(Event.Rend_success { cells = 50 });
  Engine.rendezvous e ~outcome:Event.Rend_closed;
  Engine.rendezvous e ~outcome:Event.Rend_expired;
  let t = Engine.truth e in
  Alcotest.(check int) "circuits" 4 t.Ground_truth.rend_circuits;
  Alcotest.(check int) "success" 2 t.Ground_truth.rend_success;
  Alcotest.(check int) "closed" 1 t.Ground_truth.rend_closed;
  Alcotest.(check int) "expired" 1 t.Ground_truth.rend_expired;
  Alcotest.(check int) "cells" 150 t.Ground_truth.rend_cells

(* --- signed descriptors and v3 blinding --- *)

let test_descriptor_v2_roundtrip () =
  let d = Crypto.Drbg.create "desc-test" in
  let identity = Descriptor.make_identity d in
  let desc = Descriptor.create_v2 d identity ~intro_points:[ 1; 2; 3; 4; 5; 6 ] ~period:42 in
  Alcotest.(check bool) "verifies" true (Descriptor.verify desc);
  Alcotest.(check string) "stable address" identity.Descriptor.v2_address
    desc.Descriptor.address;
  (* tampering with the intro points breaks the signature *)
  let tampered = { desc with Descriptor.intro_points = [ 9 ] } in
  Alcotest.(check bool) "tamper detected" false (Descriptor.verify tampered)

let test_descriptor_v2_address_binding () =
  let d = Crypto.Drbg.create "desc-test2" in
  let identity = Descriptor.make_identity d in
  let other = Descriptor.make_identity d in
  let desc = Descriptor.create_v2 d identity ~intro_points:[ 1 ] ~period:0 in
  (* claiming another service's address fails the address derivation *)
  let forged = { desc with Descriptor.address = other.Descriptor.v2_address } in
  Alcotest.(check bool) "address binding" false (Descriptor.verify forged)

let test_descriptor_v3_blinding () =
  let d = Crypto.Drbg.create "desc-test3" in
  let identity = Descriptor.make_identity d in
  let d1 = Descriptor.create_v3 d identity ~intro_points:[ 1; 2 ] ~period:100 in
  let d2 = Descriptor.create_v3 d identity ~intro_points:[ 1; 2 ] ~period:101 in
  Alcotest.(check bool) "both verify" true (Descriptor.verify d1 && Descriptor.verify d2);
  (* the paper's reason for measuring v2 only: blinded addresses change
     every period and cannot be linked by unique counting *)
  Alcotest.(check bool) "periods unlinkable" true
    (d1.Descriptor.address <> d2.Descriptor.address);
  Alcotest.(check bool) "differs from v2 address" true
    (d1.Descriptor.address <> identity.Descriptor.v2_address);
  (* the derivation is deterministic per period *)
  Alcotest.(check string) "deterministic"
    (Descriptor.create_v3 d identity ~intro_points:[ 3 ] ~period:100).Descriptor.address
    d1.Descriptor.address

(* Address and signature bytes at a fixed seed: the v2 address, the
   v3 blinding hash and the signature challenge are all transcript
   hashes, so these pin how each is built. *)
let test_descriptor_known_answers () =
  let d = Crypto.Drbg.create "desc-kat" in
  let identity = Descriptor.make_identity d in
  let v3 = Descriptor.create_v3 d identity ~intro_points:[ 3; 5 ] ~period:7 in
  Alcotest.(check (list string)) "addresses and signature"
    [ "62ffcb09cb246ab9.onion"; "b2f7b2b45a6a59ed.onion"; "3ac8ed7e2a1dfbd6" ]
    [
      identity.Descriptor.v2_address;
      v3.Descriptor.address;
      (let s = v3.Descriptor.signature in
       Printf.sprintf "%08x%08x"
         (Crypto.Group.exp_to_int s.Crypto.Schnorr_sig.challenge)
         (Crypto.Group.exp_to_int s.Crypto.Schnorr_sig.response));
    ]

(* --- event wire format (Evtrace records) --- *)

let meta : Evtrace.meta = { Evtrace.seed = 17; shard = 0; shards = 1; config = [] }

let wire_roundtrip events =
  let w = Evtrace.Writer.create meta in
  List.iter (Evtrace.Writer.event w) events;
  match Evtrace.Segment.decode (Evtrace.Writer.finish w ~tallies:[]) with
  | Error _ -> false
  | Ok seg ->
      let out = ref [] in
      (match Evtrace.iter_events seg (fun ev -> out := ev :: !out) with
      | Ok n -> n = List.length events && List.rev !out = events
      | Error _ -> false)

let test_wire_roundtrip_all_kinds () =
  let events =
    [
      Event.Client_connection { client_ip = 7; country = "US"; asn = 42 };
      Event.Client_circuit { client_ip = 7; country = "DE"; asn = 1; kind = Event.Data_circuit };
      Event.Client_circuit { client_ip = 7; country = "DE"; asn = 1; kind = Event.Directory_circuit };
      Event.Entry_bytes { client_ip = 9; country = "AE"; asn = 5; bytes = 123456.0 };
      Event.Directory_request { client_ip = 3 };
      Event.Exit_stream { kind = Event.Initial; dest = Event.Hostname "www.amazon.com"; port = 443 };
      Event.Exit_stream { kind = Event.Subsequent; dest = Event.Ipv4_literal; port = 80 };
      Event.Exit_stream { kind = Event.Initial; dest = Event.Ipv6_literal; port = 22 };
      Event.Exit_bytes { bytes = 512.0 };
      Event.Descriptor_published { address = "abcdef.onion"; first_publish = true };
      Event.Descriptor_fetch { address = "abcdef.onion"; result = Event.Fetch_ok { public = true } };
      Event.Descriptor_fetch { address = "x.onion"; result = Event.Fetch_ok { public = false } };
      Event.Descriptor_fetch { address = ""; result = Event.Fetch_malformed };
      Event.Descriptor_fetch { address = "y.onion"; result = Event.Fetch_missing };
      Event.Rendezvous_circuit { outcome = Event.Rend_success { cells = 1500 } };
      Event.Rendezvous_circuit { outcome = Event.Rend_closed };
      Event.Rendezvous_circuit { outcome = Event.Rend_expired };
    ]
  in
  List.iteri
    (fun i event ->
      if not (wire_roundtrip [ event ]) then Alcotest.failf "roundtrip failed for event %d" i)
    events;
  Alcotest.(check bool) "whole list in one segment" true (wire_roundtrip events)

let test_wire_escaping () =
  let event =
    Event.Exit_stream
      { kind = Event.Initial; dest = Event.Hostname "evil host=with%stuff"; port = 80 }
  in
  Alcotest.(check bool) "odd hostname roundtrips" true (wire_roundtrip [ event ])

(* --- onion registry --- *)

let test_onion_addresses_unique () =
  let reg = Onion.create () in
  let r = rng () in
  let services = Onion.populate reg ~count:100 ~public_fraction:0.5 r in
  let addresses = List.map (fun s -> s.Onion.address) services in
  Alcotest.(check int) "unique addresses" 100 (List.length (List.sort_uniq compare addresses));
  Alcotest.(check int) "count" 100 (Array.length (Onion.services reg));
  List.iter
    (fun s ->
      match Onion.find reg s.Onion.address with
      | Some s' -> Alcotest.(check string) "find" s.Onion.address s'.Onion.address
      | None -> Alcotest.fail "service not found")
    services

let test_bogus_addresses_not_registered () =
  let reg = Onion.create () in
  let r = rng () in
  ignore (Onion.populate reg ~count:10 ~public_fraction:0.5 r);
  Alcotest.(check bool) "bogus not found" true (Onion.find reg (Onion.bogus_address 3) = None)

let event_gen =
  let open QCheck.Gen in
  let host = map (Printf.sprintf "s%d.com") (int_bound 100_000) in
  let country = oneofl [ "US"; "RU"; "DE"; "AE"; "XX" ] in
  oneof
    [
      map3
        (fun ip cc asn -> Event.Client_connection { client_ip = ip; country = cc; asn })
        (int_bound 1_000_000) country (int_bound 60_000);
      map3
        (fun ip cc kind ->
          Event.Client_circuit { client_ip = ip; country = cc; asn = 1; kind })
        (int_bound 1_000_000) country
        (oneofl [ Event.Data_circuit; Event.Directory_circuit ]);
      map3
        (fun kind h port -> Event.Exit_stream { kind; dest = Event.Hostname h; port })
        (oneofl [ Event.Initial; Event.Subsequent ])
        host (int_bound 65_535);
      map (fun n -> Event.Exit_bytes { bytes = float_of_int n }) (int_bound 1_000_000_000);
      map2
        (fun addr first -> Event.Descriptor_published { address = addr; first_publish = first })
        host bool;
      map
        (fun cells -> Event.Rendezvous_circuit { outcome = Event.Rend_success { cells } })
        (int_bound 100_000);
    ]

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip" ~count:500 (QCheck.make event_gen) (fun event ->
      wire_roundtrip [ event ])

let prop_ring_responsibility_stable =
  QCheck.Test.make ~name:"ring responsibility independent of query order" ~count:50
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let c = small_consensus () in
      let ring = Hsdir_ring.create (Consensus.hsdir_ids c) in
      let addr_a = Onion.bogus_address a and addr_b = Onion.bogus_address b in
      let ra1 = Hsdir_ring.responsible ring addr_a in
      let _ = Hsdir_ring.responsible ring addr_b in
      let ra2 = Hsdir_ring.responsible ring addr_a in
      ra1 = ra2)

let prop_event_observed_fraction =
  (* the fraction of exit-stream events landing at an observer set should
     match its exit-weight fraction *)
  QCheck.Test.make ~name:"observer fraction ~ exit weight" ~count:3 QCheck.small_int
    (fun seed ->
      let r = Prng.Rng.create (seed + 1) in
      let c = Netgen.generate ~config:{ Netgen.default with Netgen.relays = 150 } r in
      let e = Engine.create ~seed:(seed + 1) c in
      let observers = Consensus.pick_observers_by_weight c r ~role:`Exit ~target_fraction:0.2 in
      let fraction = Consensus.exit_fraction c observers in
      let seen = ref 0 in
      List.iter
        (fun id ->
          Engine.add_sink e id (fun ev ->
              match ev with Event.Exit_stream _ -> incr seen | _ -> ()))
        observers;
      let client = Client.make_selective c r ~ip:1 ~country:"US" ~asn:1 ~g:1 in
      let n = 4_000 in
      for _ = 1 to n do
        Engine.exit_visit e client ~dest:(Event.Hostname "a.com") ~port:443
          ~subsequent_streams:0 ~bytes:1.0 ()
      done;
      let observed = float_of_int !seen /. float_of_int n in
      Float.abs (observed -. fraction) < 0.05)

let () =
  Alcotest.run "torsim"
    [
      ( "relay/consensus",
        [
          Alcotest.test_case "relay weights" `Quick test_relay_weights;
          Alcotest.test_case "bad bandwidth" `Quick test_relay_rejects_nonpositive_bandwidth;
          Alcotest.test_case "roles nonempty" `Quick test_consensus_roles_nonempty;
          Alcotest.test_case "sampling respects flags" `Quick test_consensus_sampling_respects_flags;
          Alcotest.test_case "weighted sampling" `Quick test_consensus_weighted_sampling;
          Alcotest.test_case "fractions" `Quick test_fractions_sum;
          Alcotest.test_case "pick observers" `Quick test_pick_observers_by_weight;
          Alcotest.test_case "dense ids" `Quick test_consensus_dense_ids_required;
        ] );
      ( "hsdir_ring",
        [
          Alcotest.test_case "responsible count" `Quick test_ring_responsible_count;
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "members are hsdirs" `Quick test_ring_members_are_hsdirs;
          Alcotest.test_case "visibility bounds" `Quick test_ring_visibility_bounds;
          Alcotest.test_case "visibility matches empirical" `Quick
            test_ring_fetch_visibility_matches_empirical;
          Alcotest.test_case "balanced" `Quick test_ring_balanced;
        ] );
      ( "client",
        [
          Alcotest.test_case "selective guards" `Quick test_selective_client_guard_count;
          Alcotest.test_case "visibility model" `Quick test_selective_visibility_model;
          Alcotest.test_case "promiscuous guards" `Quick test_promiscuous_client_all_guards;
        ] );
      ( "engine",
        [
          Alcotest.test_case "connection truth" `Quick test_engine_truth_connections;
          Alcotest.test_case "stream truth" `Quick test_engine_truth_streams;
          Alcotest.test_case "sink delivery" `Quick test_engine_sink_delivery;
          Alcotest.test_case "sink isolation" `Quick test_engine_sink_only_at_registered_relay;
          Alcotest.test_case "third-party subsequent dest" `Quick test_exit_visit_third_party_dest;
          Alcotest.test_case "descriptor publish/fetch" `Quick test_descriptor_publish_fetch;
          Alcotest.test_case "descriptor placement" `Quick test_descriptor_event_at_responsible_hsdir;
          Alcotest.test_case "rendezvous truth" `Quick test_rendezvous_truth;
        ] );
      ( "onion",
        [
          Alcotest.test_case "unique addresses" `Quick test_onion_addresses_unique;
          Alcotest.test_case "bogus unregistered" `Quick test_bogus_addresses_not_registered;
        ] );
      ( "descriptor",
        [
          Alcotest.test_case "v2 roundtrip" `Quick test_descriptor_v2_roundtrip;
          Alcotest.test_case "v2 address binding" `Quick test_descriptor_v2_address_binding;
          Alcotest.test_case "v3 blinding" `Quick test_descriptor_v3_blinding;
          Alcotest.test_case "known answers" `Quick test_descriptor_known_answers;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip all kinds" `Quick test_wire_roundtrip_all_kinds;
          Alcotest.test_case "escaping" `Quick test_wire_escaping;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_event_observed_fraction; prop_wire_roundtrip; prop_ring_responsibility_stable ] );
    ]
