(* Tests for the telemetry subsystem: the run ledger's phase tree,
   budget and proof events, its JSONL form and audit, the JSON codec
   under it, and the zero-residue contract of disabled mode. *)

let with_obs f =
  Obs.reset ();
  Fun.protect ~finally:Obs.reset (fun () -> Obs.with_enabled true f)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- the phase tree --- *)

let test_phase_nesting_and_attrs () =
  with_obs (fun () ->
      let v =
        Obs.Ledger.phase "outer" ~attrs:[ ("k", "v"); ("n", "2") ] (fun () ->
            Obs.Ledger.phase "inner" (fun () -> 17) + 1)
      in
      Alcotest.(check int) "value through phases" 18 v;
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase inner; Obs.Ledger.Phase outer ] ->
        (* completion order: inner closes first *)
        Alcotest.(check string) "inner name" "inner" inner.name;
        Alcotest.(check string) "outer name" "outer" outer.name;
        Alcotest.(check (option int)) "inner parent" (Some outer.id) inner.parent;
        Alcotest.(check (option int)) "outer is root" None outer.parent;
        Alcotest.(check (list (pair string string))) "attrs in given order"
          [ ("k", "v"); ("n", "2") ] outer.attrs;
        Alcotest.(check (list (pair string string))) "no attrs given" [] inner.attrs;
        Alcotest.(check bool) "durations nest" true (outer.wall_s >= inner.wall_s)
      | evs -> Alcotest.fail (Printf.sprintf "expected 2 phases, got %d events" (List.length evs)))

let test_phase_survives_exception () =
  with_obs (fun () ->
      (try Obs.Ledger.phase "boom" (fun () -> failwith "x") with Failure _ -> ());
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase { name = "boom"; attrs = [ ("error", e) ]; _ } ] ->
        Alcotest.(check string) "error attr carries the exception" "Failure(\"x\")" e
      | _ -> Alcotest.fail "expected one phase carrying an error attr")

(* Regression: an exception unwinding through nested phases must restore
   the ambient nesting — the next phase opens at the root, and only the
   phases the exception actually crossed carry the "error" attribute. *)
let test_phase_exception_restores_nesting () =
  with_obs (fun () ->
      (try
         Obs.Ledger.phase "outer" (fun () ->
             Obs.Ledger.phase "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      Obs.Ledger.phase "after" (fun () -> ());
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase inner; Obs.Ledger.Phase outer; Obs.Ledger.Phase after ] ->
        Alcotest.(check string) "inner closes first" "inner" inner.name;
        Alcotest.(check string) "outer closes second" "outer" outer.name;
        Alcotest.(check string) "clean phase last" "after" after.name;
        Alcotest.(check (option int)) "next phase has no parent" None after.parent;
        Alcotest.(check bool) "raising phases carry error attr" true
          (List.mem_assoc "error" inner.attrs && List.mem_assoc "error" outer.attrs);
        Alcotest.(check bool) "clean phase has no error attr" true
          (not (List.mem_assoc "error" after.attrs))
      | evs -> Alcotest.fail (Printf.sprintf "expected 3 phases, got %d events" (List.length evs)))

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
      | [ Obs.Ledger.Phase { name = "p"; id = 1; wall_s; _ };
          Obs.Ledger.Phase { name = "q"; id = 2; attrs; _ } ] ->
        Alcotest.(check bool) "wall time non-negative" true (wall_s >= 0.0);
        Alcotest.(check bool) "raised phase carries error" true (List.mem_assoc "error" attrs)
      | _ -> Alcotest.fail "expected two phase events")

(* a { b; c (raises) }: events in completion order b, c, a; b and c are
   children of a, a is a root, and c carries the error (as does a, which
   the exception unwound through) while b does not. *)
let test_phase_tree () =
  with_obs (fun () ->
      (try
         Obs.Ledger.phase "a" (fun () ->
             Obs.Ledger.phase "b" (fun () -> ());
             Obs.Ledger.phase "c" (fun () -> failwith "c"))
       with Failure _ -> ());
      match Obs.Ledger.events () with
      | [ Obs.Ledger.Phase b; Obs.Ledger.Phase c; Obs.Ledger.Phase a ] ->
        Alcotest.(check (list string)) "completion order" [ "b"; "c"; "a" ]
          [ b.name; c.name; a.name ];
        Alcotest.(check (option int)) "a is a root" None a.parent;
        Alcotest.(check (option int)) "b under a" (Some a.id) b.parent;
        Alcotest.(check (option int)) "c under a" (Some a.id) c.parent;
        Alcotest.(check bool) "ids distinct" true (a.id <> b.id && b.id <> c.id && a.id <> c.id);
        Alcotest.(check bool) "b has no error" false (List.mem_assoc "error" b.attrs);
        Alcotest.(check bool) "c carries the error" true (List.mem_assoc "error" c.attrs);
        Alcotest.(check bool) "a, unwound through, carries it too" true
          (List.mem_assoc "error" a.attrs)
      | evs -> Alcotest.fail (Printf.sprintf "expected 3 phases, got %d events" (List.length evs)))

let roundtrip_events =
  [
    Obs.Ledger.Grant { system = "privcount"; epsilon = 0.3; delta = 1e-11 };
    Obs.Ledger.Draw
      { system = "s \"q\" \\ \n"; counter = "c\twith\ttabs"; mechanism = "gaussian";
        epsilon = 0.1; delta = 0.0; cum_epsilon = 0.1; cum_delta = 0.0 };
    Obs.Ledger.Proof { kind = "shuffle"; party = 2; ok = false; batch = 256 };
    Obs.Ledger.Phase
      { id = 2; parent = Some 1; name = "phase/one"; attrs = [ ("jobs", "4"); ("k", "v \"q\"") ];
        wall_s = 0.03125; alloc_bytes = 1234567.0 };
    Obs.Ledger.Phase
      { id = 1; parent = None; name = "root"; attrs = []; wall_s = 0.5; alloc_bytes = 0.0 };
    Obs.Ledger.Note { key = "k"; value = "v\x01control \xc3\xa9" };
  ]

let test_ledger_jsonl_roundtrip () =
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok back -> Alcotest.(check bool) "field for field" true (back = roundtrip_events));
  (* canonical form: Phase timings zeroed and the jobs attr dropped,
     everything else untouched *)
  (match Obs.Ledger.of_jsonl (Obs.Ledger.to_jsonl ~timings:false roundtrip_events) with
  | Error e -> Alcotest.fail e
  | Ok canon ->
    Alcotest.(check bool) "timings zeroed, jobs dropped" true
      (List.for_all
         (function
           | Obs.Ledger.Phase { wall_s; alloc_bytes; attrs; _ } ->
             wall_s = 0.0 && alloc_bytes = 0.0 && not (List.mem_assoc "jobs" attrs)
           | _ -> true)
         canon);
    Alcotest.(check bool) "other attrs kept" true
      (List.exists
         (function Obs.Ledger.Phase { attrs = [ ("k", _) ]; _ } -> true | _ -> false)
         canon));
  (match Obs.Ledger.of_jsonl "{\"e\":\"nope\"}" with
  | Ok _ -> Alcotest.fail "accepted unknown event tag"
  | Error msg -> Alcotest.(check bool) "error names the line" true (is_infix ~affix:"line 1" msg))

(* A phase line in the format before phases carried their tree is
   refused, naming the line and the first missing field; there is no
   second reader for it. *)
let test_ledger_old_phase_line_rejected () =
  let old = "{\"e\":\"phase\",\"name\":\"psc.run\",\"wall_s\":0.5,\"alloc_bytes\":0}\n" in
  (match Obs.Ledger.of_jsonl ({|{"e":"note","key":"k","value":"v"}|} ^ "\n" ^ old) with
  | Ok _ -> Alcotest.fail "accepted a phase line without id, parent and attrs"
  | Error msg ->
    Alcotest.(check bool) ("names the line: " ^ msg) true (is_infix ~affix:"line 2" msg);
    Alcotest.(check bool) ("names the field: " ^ msg) true (is_infix ~affix:"\"id\"" msg));
  List.iter
    (fun (field, line) ->
      match Obs.Ledger.of_jsonl line with
      | Ok _ -> Alcotest.fail ("accepted a phase line without " ^ field)
      | Error msg ->
        Alcotest.(check bool) ("names " ^ field ^ ": " ^ msg) true
          (is_infix ~affix:(Printf.sprintf "%S" field) msg))
    [
      ("parent", {|{"e":"phase","id":1,"name":"p","attrs":{},"wall_s":0,"alloc_bytes":0}|});
      ("attrs", {|{"e":"phase","id":1,"parent":null,"name":"p","wall_s":0,"alloc_bytes":0}|});
      ("attrs", {|{"e":"phase","id":1,"parent":null,"name":"p","attrs":{"k":1},"wall_s":0,"alloc_bytes":0}|});
    ]

(* Byte pins for the ledger's JSONL, with and without timings:
   ledgers on disk are read back by `audit`, so a change to how JSON is
   written cannot move a byte. *)
let test_ledger_jsonl_bytes_pinned () =
  Alcotest.(check string) "with timings"
    "{\"e\":\"grant\",\"system\":\"privcount\",\"epsilon\":0.3,\"delta\":1e-11}\n\
    {\"e\":\"draw\",\"system\":\"s \\\"q\\\" \\\\ \\n\",\"counter\":\"c\\twith\\ttabs\",\
    \"mechanism\":\"gaussian\",\"epsilon\":0.1,\"delta\":0,\"cum_epsilon\":0.1,\
    \"cum_delta\":0}\n{\"e\":\"proof\",\"kind\":\"shuffle\",\"party\":2,\
    \"ok\":false,\"batch\":256}\n{\"e\":\"phase\",\"id\":2,\"parent\":1,\
    \"name\":\"phase/one\",\"attrs\":{\"jobs\":\"4\",\"k\":\"v \\\"q\\\"\"},\
    \"wall_s\":0.03125,\"alloc_bytes\":1234567}\n{\"e\":\"phase\",\"id\":1,\
    \"parent\":null,\"name\":\"root\",\"attrs\":{},\"wall_s\":0.5,\"alloc_bytes\":0}\n\
    {\"e\":\"note\",\"key\":\"k\",\"value\":\"v\\u0001control \195\169\"}\n"
    (Obs.Ledger.to_jsonl roundtrip_events);
  Alcotest.(check string) "canonical"
    "{\"e\":\"grant\",\"system\":\"privcount\",\"epsilon\":0.3,\"delta\":1e-11}\n\
    {\"e\":\"draw\",\"system\":\"s \\\"q\\\" \\\\ \\n\",\"counter\":\"c\\twith\\ttabs\",\
    \"mechanism\":\"gaussian\",\"epsilon\":0.1,\"delta\":0,\"cum_epsilon\":0.1,\
    \"cum_delta\":0}\n{\"e\":\"proof\",\"kind\":\"shuffle\",\"party\":2,\
    \"ok\":false,\"batch\":256}\n{\"e\":\"phase\",\"id\":2,\"parent\":1,\
    \"name\":\"phase/one\",\"attrs\":{\"k\":\"v \\\"q\\\"\"},\"wall_s\":0,\
    \"alloc_bytes\":0}\n{\"e\":\"phase\",\"id\":1,\"parent\":null,\"name\":\"root\",\
    \"attrs\":{},\"wall_s\":0,\"alloc_bytes\":0}\n{\"e\":\"note\",\"key\":\"k\",\
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
      map3
        (fun (id, parent, n) attrs (w, a) ->
          (* JSON objects have distinct keys: keep the first of each *)
          let attrs =
            List.fold_left
              (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
              [] attrs
          in
          Obs.Ledger.Phase { id; parent; name = n; attrs; wall_s = w; alloc_bytes = a })
        (triple small_nat (opt small_nat) str)
        (list_size (int_range 0 3) (pair str str))
        (pair gen_float gen_float);
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

(* A full verified PSC round writes the same canonical ledger, phase
   tree included, at any pool size: workers record nothing, so every
   event comes from the orchestrating domain in program order. *)
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
                    ~dp:Dp.Mechanism.paper_params ()
                in
                let proto = Psc.Protocol.create cfg ~num_dcs:2 ~seed in
                for i = 0 to n - 1 do
                  Psc.Protocol.insert proto ~dc:(i mod 2) (Printf.sprintf "i%d" i)
                done;
                ignore (Psc.Protocol.run proto);
                Obs.Ledger.to_jsonl ~timings:false (Obs.Ledger.events ())))
      in
      let a = ledger_at 1 and b = ledger_at 4 in
      is_infix ~affix:"\"parent\":" a && String.equal a b)

(* --- disabled mode --- *)

let test_disabled_leaves_no_residue () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Obs.Ledger.note ~key:"k" ~value:"v";
  Obs.Ledger.draw ~system:"s" ~counter:"c" ~mechanism:"m" ~epsilon:1.0 ~delta:0.0;
  let p = Obs.Ledger.phase "p" (fun () -> Obs.Ledger.phase "q" (fun () -> 6 * 7)) in
  Alcotest.(check int) "phase is transparent" 42 p;
  Alcotest.(check int) "empty ledger" 0 (List.length (Obs.Ledger.events ()));
  (* disabled phases take no ids and leave no open nesting behind *)
  Obs.with_enabled true (fun () -> Obs.Ledger.phase "r" ignore);
  (match Obs.Ledger.events () with
  | [ Obs.Ledger.Phase { name = "r"; id = 1; parent = None; _ } ] -> ()
  | _ -> Alcotest.fail "expected the first enabled phase at id 1, as a root");
  Obs.reset ()

let test_instrumented_paths_silent_when_disabled () =
  (* run an instrumented subsystem end to end with telemetry off: the
     ledger must stay empty *)
  Obs.reset ();
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:256 ~num_cps:2 ~noise_flips_per_cp:8 ())
      ~num_dcs:2 ~seed:3
  in
  for i = 0 to 49 do
    Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "x%d" i)
  done;
  ignore (Psc.Protocol.run proto);
  Alcotest.(check int) "no ledger events" 0 (List.length (Obs.Ledger.events ()))

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "nesting and attrs" `Quick test_phase_nesting_and_attrs;
          Alcotest.test_case "exception safety" `Quick test_phase_survives_exception;
          Alcotest.test_case "exception restores nesting" `Quick
            test_phase_exception_restores_nesting;
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
          Alcotest.test_case "phase tree" `Quick test_phase_tree;
          Alcotest.test_case "jsonl round-trip" `Quick test_ledger_jsonl_roundtrip;
          Alcotest.test_case "old phase line rejected" `Quick test_ledger_old_phase_line_rejected;
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
