(* torlint's own test suite: every rule family gets a good/seeded-violation
   fixture pair, plus suppression-comment handling, config parsing, and
   the engine's parse-failure path. Fixtures are linted as strings under
   fabricated paths, since all scoping decisions are path-based. *)

open Lint

let lint ?(config = Config.default) ~path source = Engine.lint_sources config [ (path, source) ]

let rule_ids diags = List.map (fun d -> d.Diagnostic.rule_id) diags

let check_flags msg ~rule diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s (got: %s)" msg rule (String.concat ", " (rule_ids diags)))
    true
    (List.mem rule (rule_ids diags))

let check_clean msg diags =
  Alcotest.(check (list string)) (msg ^ " is clean") [] (rule_ids diags)

(* --- determinism --- *)

let test_determinism_hashtbl_order () =
  let bad = "let pairs h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []" in
  check_flags "unsorted fold" ~rule:"determinism/hashtbl-order"
    (lint ~path:"lib/privcount/fixture.ml" bad);
  check_flags "unsorted iter" ~rule:"determinism/hashtbl-order"
    (lint ~path:"lib/psc/fixture.ml" "let dump h = Hashtbl.iter print_endline h");
  let sorted_pipeline =
    "let pairs h =\n\
    \  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []\n\
    \  |> List.sort (fun (a, _) (b, _) -> String.compare a b)"
  in
  check_clean "fold piped into sort" (lint ~path:"lib/privcount/fixture.ml" sorted_pipeline);
  let sorted_direct =
    "let pairs h = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])"
  in
  check_clean "fold under sort" (lint ~path:"lib/dp/fixture.ml" sorted_direct);
  (* same source out of the determinism scope: not our concern *)
  check_clean "out of scope" (lint ~path:"lib/torsim/fixture.ml" bad)

let test_determinism_ambient_sources () =
  check_flags "Random" ~rule:"determinism/ambient-rng"
    (lint ~path:"lib/crypto/fixture.ml" "let r () = Random.int 10");
  check_flags "Sys.time" ~rule:"determinism/wall-clock"
    (lint ~path:"lib/dp/fixture.ml" "let now () = Sys.time ()");
  check_flags "Unix clock" ~rule:"determinism/wall-clock"
    (lint ~path:"lib/psc/fixture.ml" "let now () = Unix.gettimeofday ()");
  check_flags "Hashtbl.hash" ~rule:"determinism/unseeded-hash"
    (lint ~path:"lib/privcount/fixture.ml" "let h x = Hashtbl.hash x");
  check_clean "seeded prng"
    (lint ~path:"lib/privcount/fixture.ml" "let r rng = Prng.Rng.below rng 10")

(* the call graph must carry every place a primitive can be written,
   not only top-level function bodies *)
let test_determinism_nested_shapes () =
  let path = "lib/psc/fixture.ml" in
  check_flags "functor body" ~rule:"determinism/ambient-rng"
    (lint ~path
       "module type S = sig val n : int end\n\
        module F (X : S) = struct let r () = Random.int X.n end");
  check_flags "let () initializer" ~rule:"determinism/ambient-rng"
    (lint ~path "let () = ignore (Random.int 10)");
  check_flags "nested module" ~rule:"determinism/ambient-rng"
    (lint ~path "module Inner = struct module Deeper = struct let r () = Random.int 10 end end");
  check_flags "include struct" ~rule:"determinism/ambient-rng"
    (lint ~path "include struct let r () = Random.int 10 end");
  check_flags "anonymous module" ~rule:"determinism/ambient-rng"
    (lint ~path "module _ = struct let r () = Random.int 10 end");
  check_flags "functor argument" ~rule:"determinism/ambient-rng"
    (lint ~path
       "module F (X : sig end) = struct end\n\
        module M = F (struct let r () = Random.int 10 end)");
  check_flags "let module" ~rule:"determinism/hashtbl-order"
    (lint ~path
       "let dump h =\n\
       \  let module M = struct let go () = Hashtbl.iter (fun _ _ -> ()) h end in\n\
       \  M.go ()")

(* the config's scope directive widens where the family runs *)
let test_determinism_scope_directive () =
  let bad = "let pairs h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []" in
  check_clean "default scope" (lint ~path:"lib/workload/fixture.ml" bad);
  let config =
    match Config.of_string "scope determinism lib/workload" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_flags "widened scope" ~rule:"determinism/hashtbl-order"
    (lint ~config ~path:"lib/workload/fixture.ml" bad)

(* --- polymorphic compare --- *)

let test_polycompare () =
  check_flags "structural = on group element" ~rule:"polycompare/structural-eq"
    (lint ~path:"lib/crypto/fixture.ml" "let bad a b = Group.mul a b = Group.one");
  check_flags "structural <> on ciphertext" ~rule:"polycompare/structural-eq"
    (lint ~path:"lib/crypto/fixture.ml" "let bad pk x y = Elgamal.encrypt pk x <> Elgamal.encrypt pk y");
  check_flags "polymorphic compare" ~rule:"polycompare/poly-compare"
    (lint ~path:"lib/crypto/fixture.ml" "let c xs = List.sort compare xs");
  check_flags "first-class equality" ~rule:"polycompare/structural-eq"
    (lint ~path:"lib/crypto/fixture.ml" "let mem x xs = List.exists (( = ) x) xs");
  check_clean "scalar escape"
    (lint ~path:"lib/crypto/fixture.ml"
       "let ok a b = Group.elt_to_int a = Group.elt_to_int b");
  check_clean "plain int compare" (lint ~path:"lib/crypto/fixture.ml" "let ok n = n = 0");
  check_clean "out of scope"
    (lint ~path:"lib/stats/fixture.ml" "let bad a b = Group.mul a b = Group.one")

(* --- privacy flow --- *)

let test_privflow () =
  let leak = "let leak d = Privcount.Dc.report d" in
  check_flags "raw DC sums in bin/" ~rule:"privflow/raw-counter-leak"
    (lint ~path:"bin/fixture.ml" leak);
  check_flags "raw SK sums in obs" ~rule:"privflow/raw-counter-leak"
    (lint ~path:"lib/obs/fixture.ml" "let leak sk = Privcount.Sk.report sk");
  (* the run ledger is a sink: pre-noise counter residues can never be
     recorded as audit events *)
  check_flags "raw DC sums in the run ledger" ~rule:"privflow/raw-counter-leak"
    (lint ~path:"lib/obs/ledger.ml" leak);
  check_flags "ground truth in report layer" ~rule:"privflow/raw-counter-leak"
    (lint ~path:"lib/core/report_util.ml" "let truth p = Psc.Protocol.true_union_size p");
  (* lib/dp is the DP laundering point: the same reference is legitimate *)
  check_clean "laundering point" (lint ~path:"lib/dp/fixture.ml" leak);
  (* non-sink library code may aggregate raw values internally *)
  check_clean "non-sink module" (lint ~path:"lib/core/exp_fixture.ml" leak);
  (* config can extend the sensitive set *)
  let config =
    match Config.of_string "sensitive Engine.truth" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_flags "config-added accessor" ~rule:"privflow/raw-counter-leak"
    (lint ~config ~path:"bin/fixture.ml" "let t e = Torsim.Engine.truth e")

(* a module alias hides the accessor's spelled-out name; the call graph
   resolves [D.report] to [Dc.report] all the same *)
let test_privflow_aliased () =
  let dc = ("lib/privcount/dc.ml", "let report d = d") in
  let cli = ("bin/x.ml", "module D = Privcount.Dc\nlet leak d = D.report d") in
  check_flags "aliased accessor in bin/" ~rule:"privflow/raw-counter-leak"
    (Engine.lint_sources Config.default [ dc; cli ]);
  let opened = ("bin/x.ml", "open Privcount.Dc\nlet leak d = report d") in
  check_flags "opened accessor in bin/" ~rule:"privflow/raw-counter-leak"
    (Engine.lint_sources Config.default [ dc; opened ]);
  check_clean "alias outside a sink"
    (Engine.lint_sources Config.default [ dc; ("lib/core/x.ml", snd cli) ])

(* the repo policy declares lib/bus a sink (serialized envelopes leave
   the process via checkpoints and recorded delivery orders) and pulls
   it into the determinism scope; a pre-noise report smuggled through
   an envelope body must be caught like any other sink leak *)
let test_bus_sink () =
  let config =
    match
      Config.of_string "sink lib/bus\nscope determinism lib/bus"
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_flags "raw report serialized into an envelope"
    ~rule:"privflow/raw-counter-leak"
    (lint ~config ~path:"lib/bus/fixture.ml"
       "let body d = Wire.encode (Privcount.Dc.report d)");
  (* the helper lives outside any sink; only the whole-program pass
     sees the bus reaching it — the envelope launders nothing *)
  let helper = ("lib/core/blob_fix.ml", "let grab d = Privcount.Dc.report d") in
  let bus = ("lib/bus/envelope_fix.ml", "let body d = Core.Blob_fix.grab d") in
  check_clean "the envelope file alone names no accessor"
    (lint ~config ~path:(fst bus) (snd bus));
  check_flags "leak hidden one call behind the envelope helper"
    ~rule:"privflow/transitive-leak"
    (Engine.lint_sources config [ helper; bus ]);
  (* without the sink directive the same code is ordinary library
     aggregation — the directive is what makes it a leak *)
  check_clean "not a sink by default"
    (lint ~path:"lib/bus/fixture.ml" "let body d = Wire.encode (Privcount.Dc.report d)");
  (* the determinism scope rides along: iteration-order hazards in the
     bus are now first-class findings *)
  check_flags "hashtbl order in the bus" ~rule:"determinism/hashtbl-order"
    (lint ~config ~path:"lib/bus/fixture.ml"
       "let parties h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []");
  check_flags "wall clock in the bus" ~rule:"determinism/wall-clock"
    (lint ~config ~path:"lib/bus/fixture.ml" "let due () = Sys.time ()")

(* --- hygiene --- *)

let test_hygiene () =
  check_flags "swallowed exception" ~rule:"hygiene/swallowed-exn"
    (lint ~path:"lib/stats/fixture.ml" "let f g = try g () with _ -> 0");
  check_flags "Obj.magic" ~rule:"hygiene/obj-magic"
    (lint ~path:"lib/workload/fixture.ml" "let cast x = Obj.magic x");
  check_flags "failwith in lib" ~rule:"hygiene/failwith-in-lib"
    (lint ~path:"lib/torsim/fixture.ml" "let f () = failwith \"boom\"");
  check_clean "failwith in bin" (lint ~path:"bin/fixture.ml" "let f () = failwith \"boom\"");
  check_clean "specific handler"
    (lint ~path:"lib/stats/fixture.ml" "let f g = try g () with Not_found -> 0")

(* --- suppression comments --- *)

let test_suppression () =
  let bad = "let pairs h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []" in
  let path = "lib/privcount/fixture.ml" in
  check_clean "same-line allow by id"
    (lint ~path (bad ^ " (* torlint: allow determinism/hashtbl-order — commutes *)"));
  check_clean "preceding-line allow by family"
    (lint ~path ("(* torlint: allow determinism — commutes *)\n" ^ bad));
  check_clean "bare allow waives everything" (lint ~path ("(* torlint: allow *)\n" ^ bad));
  check_flags "allow for another rule does not waive" ~rule:"determinism/hashtbl-order"
    (lint ~path ("(* torlint: allow hygiene *)\n" ^ bad));
  check_flags "allow far above does not waive" ~rule:"determinism/hashtbl-order"
    (lint ~path ("(* torlint: allow determinism *)\n\n\n\n" ^ bad))

(* --- config parsing --- *)

let test_config_parsing () =
  let cfg =
    match
      Config.of_string
        "# comment\n\
         disable hygiene/failwith-in-lib\n\
         allow determinism lib/legacy\n\
         sink lib/export\n\
         launder lib/sanitize\n\
         crypto-module Paillier\n\
         escape _digest\n"
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "disable recorded" true
    (List.mem "hygiene/failwith-in-lib" cfg.Config.disabled);
  Alcotest.(check bool) "allow recorded" true
    (List.mem ("determinism", "lib/legacy") cfg.Config.allows);
  Alcotest.(check bool) "sink appended" true (List.mem "lib/export" cfg.Config.sinks);
  Alcotest.(check bool) "launder appended" true (List.mem "lib/sanitize" cfg.Config.launder);
  Alcotest.(check bool) "crypto module appended" true
    (List.mem "Paillier" cfg.Config.crypto_modules);
  Alcotest.(check bool) "escape appended" true (List.mem "_digest" cfg.Config.escapes);
  (match Config.of_string "frobnicate lib/x" with
  | Ok _ -> Alcotest.fail "unknown directive accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the line" true
      (String.length msg > 0 && msg.[String.length msg - 1] <> '\n'));
  (match Config.of_string "allow determinism" with
  | Ok _ -> Alcotest.fail "wrong arity accepted"
  | Error _ -> ());
  (* only determinism, polycompare and hygiene read a scope; a scope
     for any other family would be silently inert *)
  (match Config.of_string "scope polycompare lib/x\nscope hygiene test/" with
  | Ok c ->
    Alcotest.(check bool) "hygiene scope appended" true
      (List.mem "test/" (Config.scope_of c "hygiene"))
  | Error e -> Alcotest.fail e);
  List.iter
    (fun family ->
      match Config.of_string ("scope " ^ family ^ " lib/bus") with
      | Ok _ -> Alcotest.fail ("scope " ^ family ^ " accepted")
      | Error _ -> ())
    [ "domainsafety"; "privflow"; "frobnicate" ]

let test_config_allowlist_waives () =
  let bad = "let pairs h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []" in
  let config =
    match Config.of_string "allow determinism/hashtbl-order lib/privcount" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_clean "allowlisted path" (lint ~config ~path:"lib/privcount/fixture.ml" bad);
  check_flags "other paths still flagged" ~rule:"determinism/hashtbl-order"
    (lint ~config ~path:"lib/psc/fixture.ml" bad)

let test_config_disable () =
  let config =
    match Config.of_string "disable determinism" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  check_clean "family disabled"
    (lint ~config ~path:"lib/privcount/fixture.ml" "let r () = Random.int 10")

(* --- call graph --- *)

let graph sources =
  let parsed =
    List.filter_map
      (fun (path, src) ->
        match Engine.parse ~path src with
        | Ok ast -> Some (path, ast)
        | Error (_, msg) -> Alcotest.fail (Printf.sprintf "%s: %s" path msg))
      sources
  in
  Callgraph.build Config.default parsed

let uses_of g id =
  match Callgraph.find g id with
  | None -> Alcotest.fail (Printf.sprintf "no def %s" id)
  | Some d -> List.map (fun (u : Callgraph.use) -> u.Callgraph.target) d.Callgraph.uses

let test_callgraph_aliases () =
  let g =
    graph
      [
        ("lib/core/helper.ml", "let go x = x + 1");
        ("lib/core/user.ml", "module H = Helper\nlet call x = H.go x");
      ]
  in
  Alcotest.(check (list string)) "alias resolves to the target unit"
    [ "Helper.go" ] (uses_of g "User.call");
  (* dune wrapper prefixes are dropped until a known def matches *)
  let g2 =
    graph
      [
        ("lib/privcount/dc.ml", "let report d = d");
        ("lib/core/wrap.ml", "let show d = Privcount.Dc.report d");
      ]
  in
  Alcotest.(check (list string)) "wrapped reference resolves"
    [ "Dc.report" ] (uses_of g2 "Wrap.show")

let test_callgraph_functors () =
  let g =
    graph
      [
        ( "lib/core/fct.ml",
          "module type S = sig val base : int end\n\
           module F (X : S) = struct let go () = X.base end\n\
           module M = F (struct let base = 1 end)\n\
           let use () = M.go ()" );
      ]
  in
  (match Callgraph.find g "Fct.F.go" with
  | None -> Alcotest.fail "functor body not collected"
  | Some d -> Alcotest.(check bool) "marked in_functor" true d.Callgraph.in_functor);
  Alcotest.(check (list string)) "application aliases to the functor body"
    [ "Fct.F.go" ] (uses_of g "Fct.use")

let test_callgraph_shadowing () =
  let g =
    graph
      [
        ( "lib/core/shade.ml",
          "let target () = ()\nlet f target = target ()\nlet h () = target ()" );
      ]
  in
  Alcotest.(check (list string)) "parameter shadows the top-level def" []
    (uses_of g "Shade.f");
  Alcotest.(check (list string)) "unshadowed reference is an edge"
    [ "Shade.target" ] (uses_of g "Shade.h")

let test_callgraph_mutual_recursion () =
  let g =
    graph
      [
        ( "lib/core/mutual.ml",
          "let rec ping n = if n = 0 then 0 else pong (n - 1)\nand pong n = ping (n / 2)" );
      ]
  in
  Alcotest.(check (list string)) "ping -> pong" [ "Mutual.pong" ] (uses_of g "Mutual.ping");
  Alcotest.(check (list string)) "pong -> ping" [ "Mutual.ping" ] (uses_of g "Mutual.pong")

let test_reach_chain () =
  let adj = function
    | "a" -> [ ("b", Location.none) ]
    | "b" -> [ ("c", Location.none) ]
    | _ -> []
  in
  let r = Reach.run ~adj ~seeds:[ ("a", "seed") ] ~blocked:(fun _ -> false) in
  Alcotest.(check (list string)) "witness chain" [ "c"; "b"; "a" ] (Reach.chain r "c");
  Alcotest.(check bool) "payload carried" true
    (match Reach.find r "c" with Some h -> h.Reach.payload = "seed" | None -> false);
  let r2 = Reach.run ~adj ~seeds:[ ("a", "seed") ] ~blocked:(fun n -> n = "b") in
  Alcotest.(check bool) "blocked node stops propagation" false (Reach.mem r2 "c")

(* --- transitive call-graph findings --- *)

(* A sink calling a wrapper that calls the raw accessor: the sink file
   mentions no accessor, so linting it alone is provably clean; with
   the wrapper in the program the pass follows the chain. *)
let test_privflow_transitive () =
  let helper = ("lib/core/wrapper_fix.ml", "let grab d = Privcount.Dc.report d") in
  let cli = ("bin/fix_cli.ml", "let show d = Core.Wrapper_fix.grab d") in
  check_clean "the sink file alone names no accessor"
    (lint ~path:(fst cli) (snd cli));
  let diags = Engine.lint_sources Config.default [ helper; cli ] in
  check_flags "whole-program pass follows the chain" ~rule:"privflow/transitive-leak" diags;
  let msg =
    match List.find_opt (fun d -> d.Diagnostic.rule_id = "privflow/transitive-leak") diags with
    | Some d -> d.Diagnostic.message
    | None -> ""
  in
  Alcotest.(check bool) ("chain names the wrapper: " ^ msg) true
    (String.length msg > 0
    && (let has s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        has msg "Wrapper_fix.grab" && has msg "->"))

let test_determinism_transitive () =
  let helper = ("lib/torsim/helper_fix.ml", "let jitter () = Random.int 10") in
  let user = ("lib/privcount/user_fix.ml", "let go () = Torsim.Helper_fix.jitter ()") in
  check_clean "the scoped file alone names no primitive"
    (lint ~path:(fst user) (snd user));
  check_clean "helper alone is out of scope" (lint ~path:(fst helper) (snd helper));
  check_flags "scoped code reaching the primitive transitively"
    ~rule:"determinism/transitive"
    (Engine.lint_sources Config.default [ helper; user ])

let test_domainsafety () =
  let racy =
    "let table : (int, int) Hashtbl.t = Hashtbl.create 16\n\
     let bump i = Hashtbl.replace table i i\n\
     let run n = Parallel.parallel_for 0 n (fun i -> bump i)"
  in
  check_flags "worker-reachable write to shared state" ~rule:"domainsafety/shared-write"
    (lint ~path:"lib/core/state_fix.ml" racy);
  let pure =
    "let pure i = i + 1\nlet ok n = Parallel.parallel_for 0 n (fun i -> ignore (pure i))"
  in
  check_clean "pure worker" (lint ~path:"lib/core/pure_fix.ml" pure);
  let lazy_force =
    "let heavy = lazy (Hashtbl.create 16)\n\
     let use () = Lazy.force heavy\n\
     let run n = Parallel.parallel_for 0 n (fun i -> ignore (use ()); i)"
  in
  check_flags "lazy forced from a worker races the initializer"
    ~rule:"domainsafety/lazy-init"
    (lint ~path:"lib/core/lazy_fix.ml" lazy_force);
  (* worker-safe paths opt out: lib/parallel's own synchronization is
     the mechanism under audit, not a violation *)
  check_clean "worker-safe path" (lint ~path:"lib/parallel/state_fix.ml" racy);
  (* lib/obs is not worker-safe: pool workers record no telemetry *)
  check_flags "telemetry state written from a worker" ~rule:"domainsafety/shared-write"
    (lint ~path:"lib/obs/state_fix.ml" racy)

(* --- stale allow detection --- *)

let test_stale_allows () =
  let stale = "(* torlint: allow hygiene — nothing here to waive *)\nlet ok = 1" in
  (match lint ~path:"lib/core/stale_fix.ml" stale with
  | [ d ] ->
    Alcotest.(check string) "stale rule id" "suppress/stale-allow" d.Diagnostic.rule_id;
    Alcotest.(check bool) "stale allow is an error" true
      (d.Diagnostic.severity = Diagnostic.Error)
  | diags -> Alcotest.fail (Printf.sprintf "expected one stale-allow, got %d" (List.length diags)));
  (* an allow that waives something is not stale *)
  let used =
    "let pairs h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] (* torlint: allow \
     determinism/hashtbl-order — commutes *)"
  in
  check_clean "used allow" (lint ~path:"lib/privcount/used_fix.ml" used)

(* An allow marker inside a string literal is text, not a comment: only
   the real comment on line 6 is scanned (and is stale). *)
let test_allow_in_string_literal () =
  let src =
    {|let doc = "(* torlint: allow hygiene — in a string *)"
let quoted = {x|(* torlint: allow determinism *)|x}
let escaped = "\"(* torlint: allow all *)" and quote = '"'
let multi = "line one \
  (* torlint: allow hygiene *)"
(* torlint: allow hygiene — a real comment after the literals *)
let ok = 1|}
  in
  match lint ~path:"lib/core/string_fix.ml" src with
  | [ d ] ->
    Alcotest.(check string) "stale rule id" "suppress/stale-allow" d.Diagnostic.rule_id;
    Alcotest.(check int) "only the real comment" 6 d.Diagnostic.line
  | diags ->
    Alcotest.failf "expected one stale-allow, got %d: %s" (List.length diags)
      (String.concat "; " (List.map Diagnostic.to_string diags))

(* --- machine-readable output --- *)

let test_sarif_json_roundtrip () =
  let diags = lint ~path:"lib/psc/fixture.ml" "let dump h = Hashtbl.iter print_endline h" in
  let pairs = Sarif.with_fingerprints diags in
  Alcotest.(check int) "one finding" 1 (List.length pairs);
  (* fingerprints are stable and occurrence-disambiguated *)
  let d = fst (List.hd pairs) in
  Alcotest.(check string) "fingerprint deterministic"
    (Sarif.fingerprint ~occurrence:0 d) (snd (List.hd pairs));
  Alcotest.(check bool) "occurrence disambiguates" true
    (Sarif.fingerprint ~occurrence:0 d <> Sarif.fingerprint ~occurrence:1 d);
  (* SARIF round-trips through the JSON reader and carries the rule id
     and fingerprint *)
  match Json.parse (Sarif.sarif ~rules:[ ("determinism", "doc") ] pairs) with
  | Error e -> Alcotest.fail ("sarif output does not parse: " ^ e)
  | Ok v -> (
    let ( let* ) o f = match o with Some x -> f x | None -> Alcotest.fail "sarif shape" in
    let* runs = Json.member "runs" v in
    match runs with
    | Json.Arr [ run ] -> (
      let* results = Json.member "results" run in
      match results with
      | Json.Arr [ r ] ->
        Alcotest.(check bool) "ruleId" true
          (Json.member "ruleId" r = Some (Json.Str "determinism/hashtbl-order"));
        let* fps = Json.member "partialFingerprints" r in
        Alcotest.(check bool) "fingerprint key" true
          (Json.member "torlint/v1" fps = Some (Json.Str (snd (List.hd pairs))))
      | _ -> Alcotest.fail "expected one sarif result")
    | _ -> Alcotest.fail "expected one sarif run")

(* Byte pin for the SARIF output: the fixture's finding plus a
   hand-built one whose fields need every escape, so a change to how
   JSON is written cannot move a byte of it. *)
let pinned_pairs () =
  let d = lint ~path:"lib/psc/fixture.ml" "let dump h = Hashtbl.iter print_endline h" in
  let odd =
    { Diagnostic.path = "lib/a \"b\".ml"; line = 12; col = 0; rule_id = "hygiene/x";
      severity = Diagnostic.Warning; message = "tab\there\nnl \\ ctl\x01 \xc3\xa9" }
  in
  Sarif.with_fingerprints (d @ [ odd ])

let test_sarif_bytes_pinned () =
  Alcotest.(check string) "torlint sarif"
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
    \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"torlint\",\
    \"informationUri\":\"https://example.invalid/torlint\",\"rules\":[{\"id\":\"determinism\",\
    \"shortDescription\":{\"text\":\"doc \\\"q\\\"\"}},{\"id\":\"hygiene\",\
    \"shortDescription\":{\"text\":\"h\"}}]}},\"results\":[{\"ruleId\":\"determinism/hashtbl-order\",\
    \"level\":\"error\",\"message\":{\"text\":\"Hashtbl.iter visits bindings in unspecified order; \
    sort the result (List.sort) or waive with a justified `torlint: allow` if the \
    accumulation commutes\"},\
    \"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"lib/psc/fixture.ml\"},\
    \"region\":{\"startLine\":1,\"startColumn\":14}}}],\
    \"partialFingerprints\":{\"torlint/v1\":\"a1f26df74b56c51f9a366a98a9c663be\"}},\
    {\"ruleId\":\"hygiene/x\",\"level\":\"warning\",\"message\":\
    {\"text\":\"tab\\there\\nnl \\\\ ctl\\u0001 \195\169\"},\
    \"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"lib/a \\\"b\\\".ml\"},\
    \"region\":{\"startLine\":12,\"startColumn\":1}}}],\
    \"partialFingerprints\":{\"torlint/v1\":\"59cda90c5da64ba3a9dec5dddfed95e5\"}}]}]}\n"
    (Sarif.sarif ~rules:[ ("determinism", "doc \"q\""); ("hygiene", "h") ] (pinned_pairs ()))

let test_config_interprocedural_directives () =
  let cfg =
    match Config.of_string "worker-safe lib/custom\ndet-exempt lib/telemetry" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "worker-safe appended" true
    (List.mem "lib/custom" cfg.Config.worker_safe);
  Alcotest.(check bool) "det-exempt appended" true
    (List.mem "lib/telemetry" cfg.Config.det_exempt);
  Alcotest.(check bool) "defaults kept" true
    (List.mem "lib/parallel" cfg.Config.worker_safe)

(* --- engine plumbing --- *)

let test_parse_error () =
  match lint ~path:"lib/dp/fixture.ml" "let x = (" with
  | [ d ] ->
    Alcotest.(check string) "parse error rule" "parse/error" d.Diagnostic.rule_id
  | diags ->
    Alcotest.fail
      (Printf.sprintf "expected one parse error, got %d findings" (List.length diags))

let test_diagnostic_format () =
  match lint ~path:"lib/psc/fixture.ml" "let dump h = Hashtbl.iter print_endline h" with
  | [ d ] ->
    Alcotest.(check int) "line" 1 d.Diagnostic.line;
    let s = Diagnostic.to_string d in
    Alcotest.(check bool) ("file:line:col prefix in " ^ s) true
      (String.length s > 24 && String.sub s 0 24 = "lib/psc/fixture.ml:1:13:")
  | diags -> Alcotest.fail (Printf.sprintf "expected one finding, got %d" (List.length diags))

(* the repo itself must lint clean: this is the same check CI runs *)
let test_repo_is_clean () =
  (* under `dune runtest` the cwd is _build/default/test and the source
     tree sits three levels up; allow a repo-root cwd too *)
  match
    List.find_opt
      (fun root -> Sys.file_exists (Filename.concat root "torlint.config"))
      [ "../../.."; "." ]
  with
  | None -> Alcotest.skip ()
  | Some root ->
    let config =
      match Config.load (Filename.concat root "torlint.config") with
      | Ok c -> c
      | Error e -> Alcotest.fail e
    in
    let diags = Engine.lint_paths config [ root ] in
    Alcotest.(check (list string)) "repo lints clean"
      [] (List.map Diagnostic.to_string diags)

let () =
  Alcotest.run "lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "hashtbl order" `Quick test_determinism_hashtbl_order;
          Alcotest.test_case "ambient sources" `Quick test_determinism_ambient_sources;
          Alcotest.test_case "scope directive" `Quick test_determinism_scope_directive;
          Alcotest.test_case "nested shapes" `Quick test_determinism_nested_shapes;
        ] );
      ("polycompare", [ Alcotest.test_case "structural eq" `Quick test_polycompare ]);
      ("privflow",
        [
          Alcotest.test_case "raw accessors" `Quick test_privflow;
          Alcotest.test_case "bus envelope sink" `Quick test_bus_sink;
          Alcotest.test_case "aliased accessor" `Quick test_privflow_aliased;
        ]);
      ("hygiene", [ Alcotest.test_case "failure modes" `Quick test_hygiene ]);
      ("suppression", [ Alcotest.test_case "allow comments" `Quick test_suppression ]);
      ( "config",
        [
          Alcotest.test_case "parsing" `Quick test_config_parsing;
          Alcotest.test_case "allowlist" `Quick test_config_allowlist_waives;
          Alcotest.test_case "disable" `Quick test_config_disable;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "aliases" `Quick test_callgraph_aliases;
          Alcotest.test_case "functors" `Quick test_callgraph_functors;
          Alcotest.test_case "shadowing" `Quick test_callgraph_shadowing;
          Alcotest.test_case "mutual recursion" `Quick test_callgraph_mutual_recursion;
          Alcotest.test_case "reach chains" `Quick test_reach_chain;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "privflow transitive" `Quick test_privflow_transitive;
          Alcotest.test_case "determinism transitive" `Quick test_determinism_transitive;
          Alcotest.test_case "domain safety" `Quick test_domainsafety;
          Alcotest.test_case "stale allows" `Quick test_stale_allows;
          Alcotest.test_case "allow marker in a string literal" `Quick
            test_allow_in_string_literal;
        ] );
      ( "output",
        [
          Alcotest.test_case "sarif json roundtrip" `Quick test_sarif_json_roundtrip;
          Alcotest.test_case "sarif bytes pinned" `Quick test_sarif_bytes_pinned;
          Alcotest.test_case "config directives" `Quick test_config_interprocedural_directives;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "diagnostic format" `Quick test_diagnostic_format;
          Alcotest.test_case "repo clean" `Quick test_repo_is_clean;
        ] );
    ]
