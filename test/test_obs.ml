(* Tests for the telemetry subsystem: metric semantics, quantile
   estimates on known distributions, span nesting, exporter output, and
   the zero-residue contract of disabled mode. *)

let with_obs f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset (fun () -> Obs.with_enabled true f)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- metrics --- *)

let test_counter_semantics () =
  with_obs (fun () ->
      Obs.Metrics.inc "c_total";
      Obs.Metrics.inc ~by:4 "c_total";
      Obs.Metrics.inc_float "c_total" 0.5;
      Alcotest.(check (option (float 1e-9))) "accumulates" (Some 5.5)
        (Obs.Metrics.counter_value "c_total");
      Alcotest.check_raises "monotonic"
        (Invalid_argument "Metrics.inc c_total: counters are monotonic") (fun () ->
          Obs.Metrics.inc ~by:(-1) "c_total");
      Alcotest.check_raises "type clash"
        (Invalid_argument "Metrics: c_total is not a gauge") (fun () ->
          Obs.Metrics.set "c_total" 1.0))

let test_gauge_semantics () =
  with_obs (fun () ->
      Obs.Metrics.set "g" 3.0;
      Obs.Metrics.set "g" (-2.5);
      Alcotest.(check (option (float 1e-9))) "last write wins" (Some (-2.5))
        (Obs.Metrics.gauge_value "g"))

let test_histogram_semantics () =
  with_obs (fun () ->
      let buckets = [| 1.0; 2.0; 5.0 |] in
      List.iter (Obs.Metrics.observe ~buckets "h") [ 0.5; 1.0; 1.5; 4.0; 100.0 ];
      match Obs.Metrics.snapshot () with
      | [ { Obs.Metrics.name = "h";
            value = Obs.Metrics.Histogram_sample { counts; sum; total; bounds = _ } } ] ->
        Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 1 |] counts;
        Alcotest.(check int) "total" 5 total;
        Alcotest.(check (float 1e-9)) "sum" 107.0 sum
      | _ -> Alcotest.fail "expected exactly one histogram sample")

let test_quantiles_known_distribution () =
  with_obs (fun () ->
      (* 1000 uniform draws over (0,100] against 10 linear buckets: the
         interpolated quantiles must sit close to the exact ones *)
      let buckets = Obs.Metrics.linear_buckets ~start:10.0 ~width:10.0 ~count:10 in
      for i = 1 to 1_000 do
        Obs.Metrics.observe ~buckets "u" (float_of_int i /. 10.0)
      done;
      let q x = Option.get (Obs.Metrics.quantile "u" x) in
      Alcotest.(check bool) "p50 ~ 50" true (Float.abs (q 0.5 -. 50.0) < 1.0);
      Alcotest.(check bool) "p90 ~ 90" true (Float.abs (q 0.9 -. 90.0) < 1.0);
      Alcotest.(check bool) "p99 ~ 99" true (Float.abs (q 0.99 -. 99.0) < 1.5);
      (* a point mass lands inside its covering bucket *)
      Obs.Metrics.observe ~buckets:[| 1.0; 2.0 |] "point" 1.5;
      let p = Option.get (Obs.Metrics.quantile "point" 0.5) in
      Alcotest.(check bool) "point mass in bucket" true (p > 1.0 && p <= 2.0);
      Alcotest.(check (option (float 0.0))) "unknown name" None (Obs.Metrics.quantile "nope" 0.5))

(* --- spans --- *)

let test_span_nesting_and_attrs () =
  with_obs (fun () ->
      let v =
        Obs.Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.Trace.add_attr "late" "1";
            Obs.Trace.with_span "inner" (fun () -> 17) + 1)
      in
      Alcotest.(check int) "value through spans" 18 v;
      match Obs.Trace.spans () with
      | [ inner; outer ] ->
        (* completion order: inner closes first *)
        Alcotest.(check string) "inner name" "inner" inner.Obs.Trace.name;
        Alcotest.(check string) "outer name" "outer" outer.Obs.Trace.name;
        Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
        Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
        Alcotest.(check (option int)) "inner parent" (Some outer.Obs.Trace.id)
          inner.Obs.Trace.parent;
        Alcotest.(check (option int)) "outer is root" None outer.Obs.Trace.parent;
        Alcotest.(check (list (pair string string))) "attr propagation"
          [ ("k", "v"); ("late", "1") ] outer.Obs.Trace.attrs;
        Alcotest.(check bool) "durations nest" true
          (outer.Obs.Trace.duration_s >= inner.Obs.Trace.duration_s)
      | spans -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans)))

let test_span_survives_exception () =
  with_obs (fun () ->
      (try Obs.Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "span recorded" 1 (Obs.Trace.count ()))

(* Regression: an exception unwinding through nested spans must restore
   the ambient nesting — the next span opens at the root, and only the
   spans the exception actually crossed carry the "error" attribute. *)
let test_span_exception_restores_nesting () =
  with_obs (fun () ->
      (try
         Obs.Trace.with_span "outer" (fun () ->
             Obs.Trace.with_span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Obs.Trace.with_span "after" (fun () -> ());
      match Obs.Trace.spans () with
      | [ inner; outer; after ] ->
        Alcotest.(check string) "inner closes first" "inner" inner.Obs.Trace.name;
        Alcotest.(check string) "outer closes second" "outer" outer.Obs.Trace.name;
        Alcotest.(check string) "clean span last" "after" after.Obs.Trace.name;
        Alcotest.(check int) "next span reopens at root" 0 after.Obs.Trace.depth;
        Alcotest.(check (option int)) "next span has no parent" None after.Obs.Trace.parent;
        Alcotest.(check bool) "raising spans carry error attr" true
          (List.mem_assoc "error" inner.Obs.Trace.attrs
          && List.mem_assoc "error" outer.Obs.Trace.attrs);
        Alcotest.(check bool) "clean span has no error attr" true
          (not (List.mem_assoc "error" after.Obs.Trace.attrs))
      | spans -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length spans)))

let test_span_capacity () =
  with_obs (fun () ->
      Obs.Trace.set_capacity 3;
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_capacity 100_000)
        (fun () ->
          for i = 1 to 5 do
            Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
          done;
          Alcotest.(check int) "kept" 3 (Obs.Trace.count ());
          Alcotest.(check int) "dropped" 2 (Obs.Trace.dropped ())))

let test_quantile_edge_cases () =
  with_obs (fun () ->
      let buckets = [| 1.0; 2.0 |] in
      Obs.Metrics.observe ~buckets "one" 1.5;
      let q x = Option.get (Obs.Metrics.quantile "one" x) in
      Alcotest.(check (float 1e-9)) "q=0 at bucket lower bound" 1.0 (q 0.0);
      Alcotest.(check (float 1e-9)) "q=0.5 interpolates" 1.5 (q 0.5);
      Alcotest.(check (float 1e-9)) "q=1 at bucket upper bound" 2.0 (q 1.0);
      Alcotest.(check (float 1e-9)) "q clamps below" 1.0 (q (-3.0));
      Alcotest.(check (float 1e-9)) "q clamps above" 2.0 (q 7.0);
      (* a lone overflow observation clamps to the last finite bound *)
      Obs.Metrics.observe ~buckets "over" 50.0;
      Alcotest.(check (float 1e-9)) "overflow clamps" 2.0
        (Option.get (Obs.Metrics.quantile "over" 0.5));
      Obs.Metrics.inc "c_total";
      Alcotest.(check (option (float 0.0))) "non-histogram name" None
        (Obs.Metrics.quantile "c_total" 0.5))

(* --- exporters --- *)

let test_prometheus_deterministic_and_parseable () =
  with_obs (fun () ->
      Obs.Metrics.inc ~by:3 (Obs.Metrics.labeled "events_total" [ ("kind", "a b") ]);
      Obs.Metrics.set "queue_depth" 7.0;
      Obs.Metrics.observe ~buckets:[| 1.0; 2.0 |] "lat_seconds" 1.5;
      let one = Obs.Export.prometheus (Obs.Metrics.snapshot ()) in
      let two = Obs.Export.prometheus (Obs.Metrics.snapshot ()) in
      Alcotest.(check string) "deterministic" one two;
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' one) in
      Alcotest.(check bool) "nonempty" true (lines <> []);
      List.iter
        (fun line ->
          if String.length line > 0 && line.[0] <> '#' then begin
            (* every sample line is "name[{labels}] number" *)
            match String.rindex_opt line ' ' with
            | None -> Alcotest.fail ("unparseable line: " ^ line)
            | Some i -> (
              let v = String.sub line (i + 1) (String.length line - i - 1) in
              match float_of_string_opt v with
              | Some _ -> ()
              | None -> Alcotest.fail ("bad value in: " ^ line))
          end)
        lines;
      Alcotest.(check bool) "TYPE lines present" true
        (List.exists (fun l -> l = "# TYPE events_total counter") lines);
      Alcotest.(check bool) "histogram exploded" true
        (List.exists (fun l -> l = "lat_seconds_bucket{le=\"2\"} 1") lines);
      Alcotest.(check bool) "+Inf bucket" true
        (List.exists (fun l -> l = "lat_seconds_bucket{le=\"+Inf\"} 1") lines))

let test_trace_jsonl_parseable () =
  with_obs (fun () ->
      Obs.Trace.with_span "a" ~attrs:[ ("quote", "say \"hi\"") ] (fun () ->
          Obs.Trace.with_span "b" (fun () -> ()));
      let out = Obs.Export.trace_jsonl (Obs.Trace.spans ()) in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.parse line with
          | Error e -> Alcotest.fail ("span line does not parse: " ^ e)
          | Ok v ->
            List.iter
              (fun field ->
                Alcotest.(check bool) (field ^ " present") true (Json.member field v <> None))
              [ "id"; "parent"; "depth"; "name"; "start_s"; "duration_s"; "alloc_bytes"; "attrs" ])
        lines;
      Alcotest.(check bool) "escaped quotes" true
        (is_infix ~affix:{|\"hi\"|} out))

let test_summary_nonempty () =
  with_obs (fun () ->
      Obs.Metrics.inc "c_total";
      Obs.Trace.with_span "s" (fun () -> ());
      let s = Obs.Export.summary (Obs.Metrics.snapshot ()) (Obs.Trace.spans ()) in
      Alcotest.(check bool) "mentions span" true (is_infix ~affix:"s" s);
      Alcotest.(check bool) "mentions metric" true (is_infix ~affix:"c_total" s))

(* --- run ledger --- *)

let test_ledger_draw_accumulates () =
  with_obs (fun () ->
      Obs.Ledger.grant ~system:"a" ~epsilon:1.0 ~delta:1e-9;
      Obs.Ledger.draw ~system:"a" ~counter:"x" ~mechanism:"gaussian" ~epsilon:0.25 ~delta:2e-10;
      Obs.Ledger.draw ~system:"b" ~counter:"y" ~mechanism:"binomial" ~epsilon:0.5 ~delta:0.0;
      Obs.Ledger.draw ~system:"a" ~counter:"z" ~mechanism:"gaussian" ~epsilon:0.25 ~delta:2e-10;
      (match Obs.Ledger.events () with
      | [ Obs.Ledger.Grant { system = "a"; _ };
          Obs.Ledger.Draw { cum_epsilon = c1; _ };
          Obs.Ledger.Draw { system = "b"; cum_epsilon = c2; _ };
          Obs.Ledger.Draw { cum_epsilon = c3; cum_delta = d3; _ } ] ->
        Alcotest.(check (float 1e-12)) "first draw cum" 0.25 c1;
        Alcotest.(check (float 1e-12)) "systems accumulate independently" 0.5 c2;
        Alcotest.(check (float 1e-12)) "second draw adds" 0.5 c3;
        Alcotest.(check (float 1e-20)) "delta accumulates" 4e-10 d3
      | evs -> Alcotest.fail (Printf.sprintf "unexpected events (%d)" (List.length evs)));
      let a = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "within grant, ungranted system unbounded" true a.Obs.Ledger.ok;
      Alcotest.(check (list string)) "no violations" [] a.Obs.Ledger.violations)

let test_ledger_phase_event () =
  with_obs (fun () ->
      let v = Obs.Ledger.phase "p" ~attrs:[ ("k", "v") ] (fun () -> 7) in
      Alcotest.(check int) "transparent" 7 v;
      (try Obs.Ledger.phase "q" (fun () -> failwith "x") with Failure _ -> ());
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase { name = "p"; wall_s; _ }; Obs.Ledger.Phase { name = "q"; _ } ] ->
        Alcotest.(check bool) "wall time non-negative" true (wall_s >= 0.0);
        Alcotest.(check int) "one span per phase" 2 (Obs.Trace.count ())
      | _ -> Alcotest.fail "expected two phase events")

let roundtrip_events =
  [
    Obs.Ledger.Grant { system = "privcount"; epsilon = 0.3; delta = 1e-11 };
    Obs.Ledger.Draw
      { system = "s \"q\" \\ \n"; counter = "c\twith\ttabs"; mechanism = "gaussian";
        epsilon = 0.1; delta = 0.0; cum_epsilon = 0.1; cum_delta = 0.0 };
    Obs.Ledger.Proof { kind = "shuffle"; party = 2; ok = false; batch = 256 };
    Obs.Ledger.Phase { name = "phase/one"; wall_s = 0.03125; alloc_bytes = 1234567.0 };
    Obs.Ledger.Note { key = "k"; value = "v\x01control \xc3\xa9" };
  ]

let test_ledger_jsonl_roundtrip () =
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "field for field" true (back = roundtrip_events));
  (* canonical form: Phase timings zeroed, everything else untouched *)
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl ~timings:false roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok canon ->
    Alcotest.(check bool) "timings zeroed" true
      (List.exists
         (function Obs.Ledger.Phase { wall_s = 0.0; alloc_bytes = 0.0; _ } -> true | _ -> false)
         canon));
  (match Obs.Ledger.of_jsonl "{\"e\":\"nope\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown event tag"
  | Error msg -> Alcotest.(check bool) "error names the line" true (is_infix ~affix:"line 1" msg))

(* Byte pins for the ledger's JSONL, with and without timings:
   ledgers on disk are read back by `audit`, so a change to how JSON is
   written cannot move a byte. *)
let test_ledger_jsonl_bytes_pinned () =
  Alcotest.(check string) "with timings"
    "{\"e\":\"grant\",\"system\":\"privcount\",\"epsilon\":0.3,\"delta\":1e-11}\n\
    {\"e\":\"draw\",\"system\":\"s \\\"q\\\" \\\\ \\n\",\"counter\":\"c\\twith\\ttabs\",\
    \"mechanism\":\"gaussian\",\"epsilon\":0.1,\"delta\":0,\"cum_epsilon\":0.1,\
    \"cum_delta\":0}\n{\"e\":\"proof\",\"kind\":\"shuffle\",\"party\":2,\
    \"ok\":false,\"batch\":256}\n{\"e\":\"phase\",\"name\":\"phase/one\",\
    \"wall_s\":0.03125,\"alloc_bytes\":1234567}\n{\"e\":\"note\",\
    \"key\":\"k\",\"value\":\"v\\u0001control \195\169\"}\n"
    (Obs.Ledger.to_jsonl roundtrip_events);
  Alcotest.(check string) "canonical"
    "{\"e\":\"grant\",\"system\":\"privcount\",\"epsilon\":0.3,\"delta\":1e-11}\n\
    {\"e\":\"draw\",\"system\":\"s \\\"q\\\" \\\\ \\n\",\"counter\":\"c\\twith\\ttabs\",\
    \"mechanism\":\"gaussian\",\"epsilon\":0.1,\"delta\":0,\"cum_epsilon\":0.1,\
    \"cum_delta\":0}\n{\"e\":\"proof\",\"kind\":\"shuffle\",\"party\":2,\
    \"ok\":false,\"batch\":256}\n{\"e\":\"phase\",\"name\":\"phase/one\",\
    \"wall_s\":0,\"alloc_bytes\":0}\n{\"e\":\"note\",\"key\":\"k\",\
    \"value\":\"v\\u0001control \195\169\"}\n"
    (Obs.Ledger.to_jsonl ~timings:false roundtrip_events)

(* Randomized events: arbitrary byte strings (escapes included) and
   awkward floats. *)
let gen_event =
  let gen_float =
    QCheck.Gen.oneof
      [
        QCheck.Gen.oneofl [ 0.0; 1e-11; 0.3; -2.5; 1.5e300; 4.9e-324; 0.1 ];
        QCheck.Gen.map (fun i -> float_of_int i /. 7.0) (QCheck.Gen.int_range (-10_000) 10_000);
      ]
  in
  let open QCheck.Gen in
  let str = string_size ~gen:(int_range 0 255 >|= Char.chr) (int_range 0 12) in
  oneof
    [
      map3 (fun s e d -> Obs.Ledger.Grant { system = s; epsilon = e; delta = d })
        str gen_float gen_float;
      map3
        (fun (s, c, m) (e, d) (ce, cd) ->
          Obs.Ledger.Draw
            { system = s; counter = c; mechanism = m; epsilon = e; delta = d;
              cum_epsilon = ce; cum_delta = cd })
        (triple str str str) (pair gen_float gen_float) (pair gen_float gen_float);
      map3 (fun k p (ok, b) -> Obs.Ledger.Proof { kind = k; party = p; ok; batch = b })
        str small_nat (pair bool small_nat);
      map3 (fun n w a -> Obs.Ledger.Phase { name = n; wall_s = w; alloc_bytes = a })
        str gen_float gen_float;
      map2 (fun k v -> Obs.Ledger.Note { key = k; value = v }) str str;
    ]

(* Structural round-trip: every event must reconstruct exactly. *)
let prop_ledger_roundtrip =
  QCheck.Test.make ~name:"ledger jsonl round-trips" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 8) gen_event))
    (fun events ->
      match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl events) with
      | Ok back -> back = events
      | Error _ -> false)

(* --- the JSON decoder on hostile input --- *)

(* Ledgers are outside input to `audit`: no byte string may make the
   decoder raise. Bytes are drawn mostly from JSON's own alphabet so
   the generator reaches past the first token. *)
let prop_json_garbage_total =
  let alphabet = "{}[]\",:\\/u0123456789abcdefnrtl.-+eE \t\n\001\255" in
  let gen =
    QCheck.Gen.(
      string_size (int_bound 64)
        ~gen:
          (frequency
             [
               (4, map (String.get alphabet) (int_bound (String.length alphabet - 1)));
               (1, char);
             ]))
  in
  QCheck.Test.make ~name:"arbitrary bytes never raise, only errors" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      (match Json.parse s with Ok _ | Error _ -> ());
      match Obs.Ledger.of_jsonl s with Ok _ | Error _ -> true)

let prop_ledger_prefix_error =
  QCheck.Test.make ~name:"every strict prefix of an event line is an error" ~count:200
    (QCheck.make gen_event)
    (fun ev ->
      let line = Obs.Ledger.to_jsonl [ ev ] in
      let line = String.sub line 0 (String.length line - 1) in
      List.for_all
        (fun cut ->
          let prefix = String.sub line 0 cut in
          Result.is_error (Json.parse prefix)
          && (cut = 0 || Result.is_error (Obs.Ledger.of_jsonl prefix)))
        (List.init (String.length line) Fun.id))

let test_json_nesting_capped () =
  let deep = String.make 100_000 '[' in
  Alcotest.(check bool) "100k open brackets" true (Result.is_error (Json.parse deep));
  let deep_line = String.concat "" (List.init 100_000 (fun _ -> "{\"a\":")) in
  Alcotest.(check bool) "100k-deep ledger line" true
    (Result.is_error (Obs.Ledger.of_jsonl deep_line));
  let nest d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "at the cap" true (Result.is_ok (Json.parse (nest Json.max_depth)));
  Alcotest.(check bool) "one past the cap" true
    (Result.is_error (Json.parse (nest (Json.max_depth + 1))))

let test_json_strict_grammar () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check bool) ("accepts " ^ text) true (Json.parse text = Ok want))
    [
      ({|"\u0041"|}, Json.Str "A");
      ({|"\u00411"|}, Json.Str "A1");
      ({|"\u00e9"|}, Json.Str "\xc3\xa9");
      ({|"\ud83d\ude00"|}, Json.Str "\xf0\x9f\x98\x80");
      ( {| [1, -0.5e+2, true, null] |},
        Json.Arr [ Json.Num 1.0; Json.Num (-50.0); Json.Bool true; Json.Null ] );
      ({|{"a":{"b":[]}}|}, Json.Obj [ ("a", Json.Obj [ ("b", Json.Arr []) ]) ]);
    ];
  (* \u takes exactly four hex digits: "\u00_1" is not U+0001 *)
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ String.escaped text) true
        (Result.is_error (Json.parse text)))
    [
      {|"\u00_1"|}; {|"\u+041"|}; {|"\u 041"|}; {|"\u004"|}; {|"\u004g"|};
      {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83d\u0041"|}; {|"\x41"|};
      "\"a\001b\""; {|"abc|}; "";
      "01"; "1."; ".5"; "-"; "1e"; "+1"; "1e999"; "NaN";
      {|{"a":1,"a":2}|}; {|{"a":1,}|}; "[1,]"; "[1 2]"; "{1:2}"; "tru"; "nul";
      "{} {}"; "[]x";
    ]

let test_json_writer () =
  Alcotest.(check string) "compact form"
    {|{"s":"q\"\\\n\u0001","n":[0,-0.5,1e-11,0.1,null,null],"b":true,"z":null}|}
    (Json.to_string
       (Json.Obj
          [
            ("s", Json.Str "q\"\\\n\001");
            ( "n",
              Json.Arr
                (List.map
                   (fun v -> Json.Num v)
                   [ 0.0; -0.5; 1e-11; 0.1; Float.nan; Float.infinity ]) );
            ("b", Json.Bool true);
            ("z", Json.Null);
          ]));
  List.iter
    (fun v ->
      Alcotest.(check bool) "float round-trips" true
        (Json.parse (Json.to_string (Json.Num v)) = Ok (Json.Num v)))
    [ 0.1; 1.0 /. 3.0; 4.9e-324; 1.5e300; -2.5; 1e15; 123456789012345678.0 ]

let test_audit_flags_violations () =
  let draw cum =
    Obs.Ledger.Draw
      { system = "s"; counter = "c"; mechanism = "m"; epsilon = 0.2; delta = 0.0;
        cum_epsilon = cum; cum_delta = 0.0 }
  in
  let failed = Obs.Ledger.audit [ Obs.Ledger.Proof { kind = "shuffle"; party = 1; ok = false; batch = 8 } ] in
  Alcotest.(check bool) "failed proof flagged" false failed.Obs.Ledger.ok;
  Alcotest.(check int) "counted" 1 failed.Obs.Ledger.proofs_failed;
  Alcotest.(check bool) "violation names the proof" true
    (List.exists (is_infix ~affix:"shuffle") failed.Obs.Ledger.violations);
  let overspent =
    Obs.Ledger.audit
      [ Obs.Ledger.Grant { system = "s"; epsilon = 0.3; delta = 0.0 }; draw 0.2; draw 0.4 ]
  in
  Alcotest.(check bool) "overspend flagged" false overspent.Obs.Ledger.ok;
  Alcotest.(check bool) "violation names the system" true
    (List.exists (is_infix ~affix:"s") overspent.Obs.Ledger.violations);
  let mismatch = Obs.Ledger.audit [ draw 0.2; draw 0.3 ] in
  Alcotest.(check bool) "cum mismatch flagged" false mismatch.Obs.Ledger.ok

(* End to end: a tampered CP's failed shuffle proof lands in the ledger
   and `audit` rejects the run. *)
let test_tampered_psc_fails_audit () =
  with_obs (fun () ->
      let cfg =
        Psc.Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
          ~proof_rounds:(Some 4) ~verify:true
          ~tamper:{ Psc.Protocol.tampered_cp = 1; action = `Shuffle_swap }
          ()
      in
      let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed:5 in
      for i = 0 to 19 do
        Psc.Protocol.insert proto ~dc:(i land 1) (string_of_int i)
      done;
      let r = Psc.Protocol.run proto in
      Alcotest.(check bool) "proofs failed in-protocol" false r.Psc.Protocol.proofs_ok;
      let a = Obs.Ledger.audit (Obs.Ledger.events ()) in
      Alcotest.(check bool) "audit rejects the ledger" false a.Obs.Ledger.ok;
      Alcotest.(check bool) "failed proofs counted" true (a.Obs.Ledger.proofs_failed > 0))

(* The tentpole invariant: a full verified PSC round writes the same
   canonical ledger at any pool size — worker-side events are buffered
   per chunk and replayed in task order. *)
let prop_ledger_jobs_invariant =
  QCheck.Test.make ~name:"ledger identical at jobs=1 and jobs=4" ~count:4
    QCheck.(pair (int_range 1 40) (int_range 0 80))
    (fun (seed, n) ->
      let ledger_at jobs =
        let before = Parallel.jobs () in
        Parallel.set_jobs jobs;
        Fun.protect
          ~finally:(fun () ->
            Parallel.set_jobs before;
            Obs.reset ())
          (fun () ->
            Obs.reset ();
            Obs.with_enabled true (fun () ->
                let cfg =
                  Psc.Protocol.config ~table_size:256 ~num_cps:3 ~noise_flips_per_cp:8
                    ~proof_rounds:(Some 4) ~verify:true ~dp:Dp.Mechanism.paper_params ()
                in
                let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed in
                for i = 0 to n - 1 do
                  Psc.Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "i%d" i)
                done;
                ignore (Psc.Protocol.run proto);
                Obs.Ledger.to_jsonl ~timings:false (Obs.Ledger.events ())))
      in
      let a = ledger_at 1 and b = ledger_at 4 in
      a <> "" && String.equal a b)

(* --- disabled mode --- *)

let test_disabled_leaves_no_residue () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Obs.Metrics.inc "c_total";
  Obs.Metrics.set "g" 1.0;
  Obs.Metrics.observe "h" 1.0;
  let v = Obs.Trace.with_span "s" (fun () -> 41 + 1) in
  Obs.Trace.add_attr "k" "v";
  Obs.Ledger.note ~key:"k" ~value:"v";
  Obs.Ledger.draw ~system:"s" ~counter:"c" ~mechanism:"m" ~epsilon:1.0 ~delta:0.0;
  let p = Obs.Ledger.phase "p" (fun () -> 6 * 7) in
  Alcotest.(check int) "with_span is transparent" 42 v;
  Alcotest.(check int) "phase is transparent" 42 p;
  Alcotest.(check int) "empty ledger" 0 (Obs.Ledger.size ());
  Alcotest.(check int) "empty registry" 0 (Obs.Metrics.size ());
  Alcotest.(check (list unit)) "no samples" []
    (List.map (fun _ -> ()) (Obs.Metrics.snapshot ()));
  Alcotest.(check int) "no spans" 0 (Obs.Trace.count ());
  Alcotest.(check (option (float 0.0))) "no counter" None (Obs.Metrics.counter_value "c_total")

let test_instrumented_paths_silent_when_disabled () =
  (* run an instrumented subsystem end to end with telemetry off: the
     registry and span buffer must stay empty *)
  Obs.reset ();
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:256 ~num_cps:2 ~noise_flips_per_cp:8 ~proof_rounds:None
         ~verify:false ())
      ~num_dcs:2 ~seed:3
  in
  for i = 0 to 49 do
    Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "x%d" i)
  done;
  ignore (Psc.Protocol.run proto);
  Alcotest.(check int) "no metrics" 0 (Obs.Metrics.size ());
  Alcotest.(check int) "no spans" 0 (Obs.Trace.count ());
  Alcotest.(check int) "no ledger events" 0 (Obs.Ledger.size ())

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
          Alcotest.test_case "quantile estimates" `Quick test_quantiles_known_distribution;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edge_cases;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and attrs" `Quick test_span_nesting_and_attrs;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "exception restores nesting" `Quick
            test_span_exception_restores_nesting;
          Alcotest.test_case "capacity cap" `Quick test_span_capacity;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_deterministic_and_parseable;
          Alcotest.test_case "trace jsonl" `Quick test_trace_jsonl_parseable;
          Alcotest.test_case "summary" `Quick test_summary_nonempty;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_garbage_total;
          Alcotest.test_case "nesting capped" `Quick test_json_nesting_capped;
          Alcotest.test_case "strict grammar" `Quick test_json_strict_grammar;
          Alcotest.test_case "writer" `Quick test_json_writer;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "draw accumulates" `Quick test_ledger_draw_accumulates;
          Alcotest.test_case "phase events" `Quick test_ledger_phase_event;
          Alcotest.test_case "jsonl round-trip" `Quick test_ledger_jsonl_roundtrip;
          Alcotest.test_case "jsonl bytes pinned" `Quick test_ledger_jsonl_bytes_pinned;
          QCheck_alcotest.to_alcotest prop_ledger_roundtrip;
          QCheck_alcotest.to_alcotest prop_ledger_prefix_error;
          Alcotest.test_case "audit violations" `Quick test_audit_flags_violations;
          Alcotest.test_case "tampered run fails audit" `Quick test_tampered_psc_fails_audit;
          QCheck_alcotest.to_alcotest prop_ledger_jobs_invariant;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no residue" `Quick test_disabled_leaves_no_residue;
          Alcotest.test_case "instrumented paths silent" `Quick
            test_instrumented_paths_silent_when_disabled;
        ] );
    ]
