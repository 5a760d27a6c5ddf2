(* lib/trace and the netday record/replay pair: event-record and
   header round-trips (QCheck), typed decode errors on truncation /
   bad magic / wrong version / corrupt payloads, replay tallies
   byte-identical to the live run at any pool size, Mismatch on
   tampered headers, and repeat-scaling semantics. *)

open Tormeasure

let with_jobs n f =
  let before = Parallel.jobs () in
  Parallel.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.set_jobs before) f

let meta : Evtrace.meta =
  { Evtrace.seed = 7; shard = 0; shards = 1; config = [ ("relays", 60); ("clients", 40) ] }

let seal events ~tallies =
  let w = Evtrace.Writer.create meta in
  List.iter (Evtrace.Writer.event w) events;
  Evtrace.Writer.finish w ~tallies

let decode_exn bytes =
  match Evtrace.Segment.decode bytes with
  | Ok seg -> seg
  | Error e -> Alcotest.failf "decode failed: %s" (Evtrace.error_to_string e)

let replayed_events seg =
  let out = ref [] in
  (match Evtrace.iter_events seg (fun ev -> out := ev :: !out) with
  | Ok n -> Alcotest.(check int) "iter count" seg.Evtrace.Segment.events n
  | Error e -> Alcotest.failf "iter failed: %s" (Evtrace.error_to_string e));
  List.rev !out

(* --- event generators --- *)

(* Odd names included: the empty address and one with a space, '=' and
   '%'. *)
let host_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Printf.sprintf "www.s%d.com" (i mod 50)) small_nat);
        (2, map (fun i -> Printf.sprintf "s%d.co.uk" (i mod 20)) small_nat);
        (1, map (fun i -> Printf.sprintf "x%d.onion" (i mod 10)) small_nat);
        (1, return "host.internal");
        (1, oneofl [ ""; "evil host=with%stuff" ]);
      ])

let dest_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun h -> Torsim.Event.Hostname h) host_gen);
        (1, return Torsim.Event.Ipv4_literal);
        (1, return Torsim.Event.Ipv6_literal);
      ])

let country_gen = QCheck.Gen.(oneofl [ "US"; "DE"; "FR"; "RU"; "??" ])

(* Entry/exit volumes exercise both the integral-varint and the raw
   IEEE encodings. *)
let bytes_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> float_of_int (i * 4096)) small_nat);
        (1, map (fun f -> f +. 0.25) (float_bound_inclusive 1e9));
        (1, return 0.0);
      ])

let event_gen =
  QCheck.Gen.(
    int_bound 300 >>= fun ip ->
    country_gen >>= fun country ->
    int_bound 65_000 >>= fun asn ->
    bytes_gen >>= fun bytes ->
    dest_gen >>= fun dest ->
    oneofl [ 80; 443; 22; 9001 ] >>= fun port ->
    host_gen >>= fun address ->
    frequency
      [
        (3, return (Torsim.Event.Client_connection { client_ip = ip; country; asn }));
        ( 2,
          return
            (Torsim.Event.Client_circuit
               { client_ip = ip; country; asn; kind = Torsim.Event.Data_circuit }) );
        ( 1,
          return
            (Torsim.Event.Client_circuit
               { client_ip = ip; country; asn; kind = Torsim.Event.Directory_circuit }) );
        (1, return (Torsim.Event.Directory_request { client_ip = ip }));
        (2, return (Torsim.Event.Entry_bytes { client_ip = ip; country; asn; bytes }));
        (1, return (Torsim.Event.Exit_bytes { bytes }));
        (3, return (Torsim.Event.Exit_stream { kind = Torsim.Event.Initial; dest; port }));
        (2, return (Torsim.Event.Exit_stream { kind = Torsim.Event.Subsequent; dest; port }));
        ( 1,
          map
            (fun first_publish -> Torsim.Event.Descriptor_published { address; first_publish })
            bool );
        ( 1,
          map
            (fun result -> Torsim.Event.Descriptor_fetch { address; result })
            (oneofl
               [
                 Torsim.Event.Fetch_ok { public = true };
                 Torsim.Event.Fetch_ok { public = false };
                 Torsim.Event.Fetch_missing;
                 Torsim.Event.Fetch_malformed;
               ]) );
        ( 1,
          map
            (fun outcome -> Torsim.Event.Rendezvous_circuit { outcome })
            (oneofl
               [
                 Torsim.Event.Rend_success { cells = 1_500 };
                 Torsim.Event.Rend_closed;
                 Torsim.Event.Rend_expired;
               ]) );
      ])

let arb_events =
  QCheck.make
    ~print:(fun evs -> String.concat "," (List.map Torsim.Event.describe evs))
    QCheck.Gen.(list_size (int_bound 200) event_gen)

(* --- round-trip properties --- *)

let prop_record_roundtrip =
  QCheck.Test.make ~name:"encode∘decode = id on event records" ~count:200 arb_events
    (fun events ->
      let seg = decode_exn (seal events ~tallies:[]) in
      seg.Evtrace.Segment.events = List.length events && replayed_events seg = events)

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header fields survive the round-trip" ~count:100
    QCheck.(
      pair
        (list (pair (string_of_size (Gen.int_range 1 12)) small_signed_int))
        (pair small_signed_int small_nat))
    (fun (tallies, (seed, shard_off)) ->
      let meta =
        { Evtrace.seed; shard = shard_off; shards = shard_off + 1; config = [ ("k", 3) ] }
      in
      let w = Evtrace.Writer.create meta in
      Evtrace.Writer.event w
        (Torsim.Event.Client_connection { client_ip = 1; country = "US"; asn = 1 });
      let seg = decode_exn (Evtrace.Writer.finish w ~tallies) in
      seg.Evtrace.Segment.meta = meta && seg.Evtrace.Segment.tallies = tallies)

let prop_truncated =
  QCheck.Test.make ~name:"every strict prefix decodes to Truncated" ~count:200
    QCheck.(pair arb_events small_nat)
    (fun (events, cut) ->
      let s = seal events ~tallies:[ ("connections", 3) ] in
      let cut = cut mod String.length s in
      match Evtrace.Segment.decode (String.sub s 0 cut) with
      | Error Bus.Codec.Truncated -> true
      | Ok _ | Error _ -> false)

let test_decode_errors () =
  let s =
    seal
      [ Torsim.Event.Client_connection { client_ip = 9; country = "US"; asn = 701 } ]
      ~tallies:[ ("connections", 1) ]
  in
  (* wrong magic *)
  let bad_magic = Bytes.of_string s in
  Bytes.set bad_magic 0 'X';
  (match Evtrace.Segment.decode (Bytes.to_string bad_magic) with
  | Error Bus.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "expected Bad_magic");
  (* unsupported version (byte 3, after the magic) *)
  let bad_version = Bytes.of_string s in
  Bytes.set bad_version 3 (Char.chr 9);
  (match Evtrace.Segment.decode (Bytes.to_string bad_version) with
  | Error (Bus.Codec.Unsupported_version 9) -> ()
  | _ -> Alcotest.fail "expected Unsupported_version 9");
  (* flip a payload byte: the checksum must catch it *)
  let corrupt = Bytes.of_string s in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0x40));
  (match Evtrace.Segment.decode (Bytes.to_string corrupt) with
  | Error (Bus.Codec.Invalid msg) ->
    Alcotest.(check bool) "names the checksum" true
      (String.length msg >= 8 && String.sub msg 0 7 = "payload")
  | _ -> Alcotest.fail "expected Invalid (checksum)");
  (* trailing garbage *)
  (match Evtrace.Segment.decode (s ^ "x") with
  | Error (Bus.Codec.Trailing 1) -> ()
  | _ -> Alcotest.fail "expected Trailing 1");
  (* doctored payloads, each resealed with a fresh valid checksum *)
  let seg = decode_exn s in
  let iter_payload payload ~events =
    let doctored = { seg with Evtrace.Segment.payload; events } in
    Evtrace.iter (decode_exn (Evtrace.Segment.encode doctored)) (fun _ -> ())
  in
  (* a record tag outside the format *)
  (match iter_payload "\xff" ~events:1 with
  | Error (Bus.Codec.Invalid "unknown record tag 255") -> ()
  | _ -> Alcotest.fail "expected Invalid (unknown tag)");
  (* a rendezvous record whose cell count is a ten-byte varint *)
  (match iter_payload ("\x12" ^ String.make 9 '\x80' ^ "\x01") ~events:1 with
  | Error (Bus.Codec.Invalid "varint overflow") -> ()
  | _ -> Alcotest.fail "expected Invalid \"varint overflow\"");
  (* a connection whose country id is a nine-byte varint that reads
     back negative *)
  (match iter_payload ("\x00\x00" ^ String.make 8 '\xff' ^ "\x7f\x00") ~events:1 with
  | Error (Bus.Codec.Invalid "country id out of range") -> ()
  | _ -> Alcotest.fail "expected Invalid (country id)");
  (* a well-formed record, but the header promises two *)
  match iter_payload "\x14" ~events:2 with
  | Error (Bus.Codec.Invalid "header promises 2 events, payload holds 1") -> ()
  | _ -> Alcotest.fail "expected Invalid (event count)"

let prop_garbage_total =
  QCheck.Test.make ~name:"arbitrary bytes never raise, only typed errors" ~count:500
    QCheck.(string_of_size (Gen.int_bound 80))
    (fun s -> match Evtrace.Segment.decode s with Ok _ -> true | Error _ -> true)

(* --- netday record/replay --- *)

let netday_config =
  { Netday.default with Netday.clients = 90; promiscuous = 2; relays = 60; shards = 3 }

let recording = lazy (Netday.record ~config:netday_config ~seed:23 ())

let test_record_matches_live_run () =
  let r = Lazy.force recording in
  let live = Netday.run ~config:netday_config ~seed:23 () in
  Alcotest.(check (list (pair string int))) "recording result = live run" live.Netday.tallies
    r.Netday.result.Netday.tallies;
  Alcotest.(check (array int)) "per-shard events" live.Netday.per_shard_events
    r.Netday.result.Netday.per_shard_events;
  Alcotest.(check int) "one segment per shard" netday_config.Netday.shards
    (Array.length r.Netday.segments)

let segments () =
  Array.map
    (fun bytes -> decode_exn bytes)
    (Lazy.force recording).Netday.segments

let test_replay_equals_live () =
  let r = Lazy.force recording in
  let rr = Netday.replay ~verify:true (segments ()) in
  Alcotest.(check (list (pair string int))) "replayed tallies = live tallies"
    r.Netday.result.Netday.tallies rr.Netday.replayed_tallies;
  Alcotest.(check int) "replayed events" r.Netday.result.Netday.events rr.Netday.replayed_events;
  Alcotest.(check (array int)) "replayed per-shard" r.Netday.result.Netday.per_shard_events
    rr.Netday.replayed_per_shard

let prop_replay_jobs_invariance =
  QCheck.Test.make ~name:"replay tallies identical at any pool size" ~count:6
    QCheck.(int_range 1 5)
    (fun jobs ->
      let segs = segments () in
      let base = with_jobs 1 (fun () -> Netday.replay ~verify:true segs) in
      let other = with_jobs jobs (fun () -> Netday.replay ~verify:true segs) in
      base.Netday.replayed_tallies = other.Netday.replayed_tallies
      && base.Netday.replayed_events = other.Netday.replayed_events
      && base.Netday.replayed_per_shard = other.Netday.replayed_per_shard)

let test_replay_repeat_scales () =
  let segs = segments () in
  let once = Netday.replay segs in
  let thrice = Netday.replay ~repeat:3 ~verify:true segs in
  Alcotest.(check int) "events x3" (3 * once.Netday.replayed_events)
    thrice.Netday.replayed_events;
  Alcotest.(check (list (pair string int))) "tallies x3"
    (List.map (fun (n, v) -> (n, 3 * v)) once.Netday.replayed_tallies)
    thrice.Netday.replayed_tallies

let test_replay_mismatch () =
  let segs = segments () in
  (* inflate one recorded tally: verify must name shard, counter and
     both values *)
  let tampered =
    Array.mapi
      (fun i (seg : Evtrace.Segment.t) ->
        if i <> 1 then seg
        else
          {
            seg with
            Evtrace.Segment.tallies =
              List.map
                (fun (n, v) -> if n = "connections" then (n, v + 5) else (n, v))
                seg.Evtrace.Segment.tallies;
          })
      segs
  in
  (match Netday.replay ~verify:true tampered with
  | _ -> Alcotest.fail "tampered tally must not verify"
  | exception Evtrace.Mismatch m ->
    Alcotest.(check int) "shard" 1 m.Evtrace.shard;
    Alcotest.(check string) "what" "tally:connections" m.Evtrace.what;
    Alcotest.(check int) "delta" 5 (m.Evtrace.expected - m.Evtrace.got));
  (* without --verify the tampered header is ignored *)
  let rr = Netday.replay tampered in
  Alcotest.(check int) "unverified replay still ingests"
    (Lazy.force recording).Netday.result.Netday.events rr.Netday.replayed_events;
  (* segments from different recordings are refused outright *)
  let other = Netday.record ~config:netday_config ~seed:24 () in
  let mixed = Array.copy segs in
  mixed.(2) <- decode_exn other.Netday.segments.(2);
  match Netday.replay mixed with
  | _ -> Alcotest.fail "mixed recordings must be refused"
  | exception Evtrace.Error (Bus.Codec.Invalid _) -> ()

let test_recording_files () =
  let r = Lazy.force recording in
  let prefix = Filename.concat (Filename.get_temp_dir_name ()) "tmt-test" in
  let paths = Netday.write_recording r ~prefix in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove paths) @@ fun () ->
  Alcotest.(check int) "one file per shard" netday_config.Netday.shards (List.length paths);
  let segs = Netday.load_recording ~prefix in
  let rr = Netday.replay ~verify:true segs in
  Alcotest.(check (list (pair string int))) "tallies through the filesystem"
    r.Netday.result.Netday.tallies rr.Netday.replayed_tallies

(* Segment bytes of the seed-23 recording above. The writer, the codec
   and the netday generator all feed these; the values were taken
   before the writer moved onto [Bus.Codec.W]. *)
let test_segment_pins () =
  let r = Lazy.force recording in
  Alcotest.(check (array string)) "sha256 of each segment"
    [|
      "fa0cfa9669446f92b9a1bfe9c75a14565d1f88141beee7e01f8db54dc7a68bc2";
      "965303b40fb05ef57be80fc277a926c751a17956cb72231f69e3f839c9bc949f";
      "5ca48afedba9f41d8edc31746ec28921de89ea65041a778686b9c194657add6c";
    |]
    (Array.map Crypto.Sha256.hex r.Netday.segments)

(* Decoding allocates nothing per record: what a pass allocates is the
   view and the reader, a few dozen words per segment. Under 0.01
   words/event over this ~16k-event recording leaves room for those
   and none for a boxed float or a closure per field. Tests build in
   the dev profile, whose -opaque stops cross-module inlining, so this
   also holds where the codec's readers are plain calls. *)
let test_iter_allocation_free () =
  let segs = segments () in
  let noop (_ : Evtrace.View.t) = () in
  let pass () =
    Array.iter
      (fun seg ->
        match Evtrace.iter seg noop with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "iter failed: %s" (Evtrace.error_to_string e))
      segs
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  let events = Array.fold_left (fun n seg -> n + seg.Evtrace.Segment.events) 0 segs in
  let per_event = words /. float_of_int events in
  if per_event >= 0.01 then
    Alcotest.failf "iter allocated %.4f minor words/event (%.0f words, %d events)" per_event
      words events

let test_replay_validation () =
  Alcotest.check_raises "empty segment set"
    (Invalid_argument "Netday.replay: no segments") (fun () ->
      ignore (Netday.replay [||]));
  Alcotest.check_raises "bad repeat" (Invalid_argument "Netday.replay: repeat must be positive")
    (fun () -> ignore (Netday.replay ~repeat:0 (segments ())))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "trace"
    [
      ( "format",
        [
          qt prop_record_roundtrip;
          qt prop_header_roundtrip;
          qt prop_truncated;
          qt prop_garbage_total;
          Alcotest.test_case "typed decode errors" `Quick test_decode_errors;
        ] );
      ( "record-replay",
        [
          Alcotest.test_case "record = live run" `Slow test_record_matches_live_run;
          Alcotest.test_case "replay = live run" `Slow test_replay_equals_live;
          qt prop_replay_jobs_invariance;
          Alcotest.test_case "repeat scales" `Slow test_replay_repeat_scales;
          Alcotest.test_case "mismatch detection" `Slow test_replay_mismatch;
          Alcotest.test_case "file round-trip" `Slow test_recording_files;
          Alcotest.test_case "segment bytes pinned" `Quick test_segment_pins;
          Alcotest.test_case "iter allocates nothing per event" `Quick
            test_iter_allocation_free;
          Alcotest.test_case "validation" `Quick test_replay_validation;
        ] );
    ]
