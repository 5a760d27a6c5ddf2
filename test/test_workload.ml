open Workload

let rng () = Prng.Rng.create 23

(* --- suffix / SLD extraction --- *)

let test_registered_domain () =
  let check host expect =
    Alcotest.(check (option string)) host expect (Suffix.registered_domain host)
  in
  check "www.amazon.com" (Some "amazon.com");
  check "amazon.com" (Some "amazon.com");
  check "onionoo.torproject.org" (Some "torproject.org");
  check "google.co.uk" (Some "google.co.uk");
  check "a.b.google.co.uk" (Some "google.co.uk");
  check "com" None;
  check "co.uk" None;
  check "nosuchtld.xyzzy" None;
  check "s123.ru" (Some "s123.ru")

let test_tld () =
  Alcotest.(check (option string)) "tld" (Some "com") (Suffix.top_level_domain "a.b.com");
  Alcotest.(check (option string)) "single" (Some "localhost")
    (Suffix.top_level_domain "localhost")

(* --- domains --- *)

let test_specials () =
  Alcotest.(check string) "rank 1" "google.com" (Domains.name_of_rank 1);
  Alcotest.(check string) "rank 10" "amazon.com" (Domains.name_of_rank 10);
  Alcotest.(check string) "duckduckgo" "duckduckgo.com" (Domains.name_of_rank Domains.duckduckgo_rank);
  Alcotest.(check string) "torproject" "torproject.org"
    (Domains.name_of_rank Domains.torproject_rank)

let test_rank_roundtrip () =
  List.iter
    (fun rank ->
      let name = Domains.name_of_rank rank in
      Alcotest.(check (option int)) name (Some rank) (Domains.rank_of_name name))
    [ 1; 2; 10; 342; 10_244; 11; 100; 5_000; 999_999; 1_000_000 ]

let test_rank_of_garbage () =
  Alcotest.(check (option int)) "garbage" None (Domains.rank_of_name "not-a-site.zz");
  Alcotest.(check (option int)) "tail" None (Domains.rank_of_name (Domains.tail_name 5));
  Alcotest.(check (option int)) "fake s-name" None (Domains.rank_of_name "s1.wrongtld")

let test_in_alexa () =
  Alcotest.(check bool) "rank name" true (Domains.in_alexa (Domains.name_of_rank 777));
  Alcotest.(check bool) "tail name" false (Domains.in_alexa (Domains.tail_name 777))

let test_sibling_families () =
  let google = Domains.sibling_family "google" in
  Alcotest.(check int) "google family size" 212 (List.length google);
  Alcotest.(check bool) "contains anchor" true (List.mem "google.com" google);
  Alcotest.(check bool) "contains co.in anchor" true (List.mem "google.co.in" google);
  let reddit = Domains.sibling_family "reddit" in
  Alcotest.(check int) "reddit family size" 3 (List.length reddit);
  (* every member contains the basename, as the paper's construction
     requires *)
  List.iter
    (fun name ->
      let contains =
        let rec go i =
          i + 6 <= String.length name && (String.sub name i 6 = "google" || go (i + 1))
        in
        go 0
      in
      if not contains then Alcotest.fail (name ^ " does not contain basename"))
    google

let test_family_of_name () =
  Alcotest.(check (option string)) "amazon" (Some "amazon") (Domains.family_of_name "www.amazon.com");
  Alcotest.(check (option string)) "google sibling" (Some "google")
    (Domains.family_of_name "svc3.google.com");
  Alcotest.(check (option string)) "torproject" (Some "torproject")
    (Domains.family_of_name "onionoo.torproject.org");
  Alcotest.(check (option string)) "generic" None (Domains.family_of_name "s1234.com")

let test_sibling_ranks_in_list () =
  (* every sibling name must be resolvable back to an Alexa rank *)
  List.iter
    (fun base ->
      List.iter
        (fun name ->
          match Domains.rank_of_name name with
          | Some rank when rank >= 1 && rank <= Domains.list_size -> ()
          | Some _ | None -> Alcotest.fail (name ^ " not in list"))
        (Domains.sibling_family base))
    Domains.top10_basenames

(* Long-tail (non-Alexa) sites are named "t<k>.<tld>" by
   [Domains.tail_name]. *)
let looks_like_tail name = String.length name > 1 && name.[0] = 't' && String.contains name '.'

let test_tail_names_have_known_tlds () =
  for k = 0 to 50 do
    let name = Domains.tail_name k in
    Alcotest.(check bool) name true (looks_like_tail name);
    match Suffix.registered_domain name with
    | Some _ -> ()
    | None -> Alcotest.fail (name ^ " has no registered domain")
  done

(* --- popularity --- *)

let count_hosts n f =
  let r = rng () in
  let tbl = Hashtbl.create 64 in
  for _ = 1 to n do
    let host = f r in
    Hashtbl.replace tbl host (1 + Option.value ~default:0 (Hashtbl.find_opt tbl host))
  done;
  tbl

let test_popularity_shares () =
  let n = 40_000 in
  let tbl = count_hosts n (Popularity.sample_host Popularity.paper_config) in
  let share host =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl host)) /. float_of_int n
  in
  let onionoo = share Domains.onionoo in
  Alcotest.(check bool)
    (Printf.sprintf "onionoo ~0.40 (got %.3f)" onionoo)
    true
    (Float.abs (onionoo -. 0.40) < 0.02);
  let amazon = share "www.amazon.com" in
  Alcotest.(check bool)
    (Printf.sprintf "www.amazon.com ~0.086 (got %.3f)" amazon)
    true
    (Float.abs (amazon -. 0.086) < 0.01)

let test_popularity_tail_share () =
  let n = 20_000 in
  let tbl = count_hosts n (Popularity.sample_host Popularity.paper_config) in
  let tail = ref 0 in
  Hashtbl.iter (fun host c -> if looks_like_tail host then tail := !tail + c) tbl;
  let share = float_of_int !tail /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "tail ~0.21 (got %.3f)" share)
    true
    (Float.abs (share -. 0.21) < 0.02)

let test_popularity_sample_ports () =
  let r = rng () in
  let web = ref 0 and other = ref 0 and literal = ref 0 in
  for _ = 1 to 20_000 do
    let s = Popularity.sample Popularity.paper_config r in
    (match s.Popularity.dest with
    | Torsim.Event.Hostname _ -> ()
    | Torsim.Event.Ipv4_literal | Torsim.Event.Ipv6_literal -> incr literal);
    if Torsim.Event.is_web_port s.Popularity.port then incr web else incr other
  done;
  Alcotest.(check bool) "web dominates" true (!web > 19_800);
  Alcotest.(check bool) "literals rare" true (!literal < 60)

(* --- geo / asn --- *)

let test_geo_distribution () =
  let r = rng () in
  let counts = Hashtbl.create 64 in
  let n = 50_000 in
  for _ = 1 to n do
    let c = Geo.sample r in
    Hashtbl.replace counts c.Geo.code
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts c.Geo.code))
  done;
  let share code =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts code)) /. float_of_int n
  in
  Alcotest.(check bool) "US largest" true (share "US" > share "RU");
  Alcotest.(check bool) "RU >= DE" true (share "RU" >= share "DE" -. 0.01);
  Alcotest.(check bool) "many countries" true (Hashtbl.length counts > 100)

let test_geo_ae_modifiers () =
  match Geo.find "AE" with
  | None -> Alcotest.fail "AE missing"
  | Some ae ->
    Alcotest.(check bool) "circuit boost" true (ae.Geo.circuit_boost > 5.0);
    Alcotest.(check bool) "data suppressed" true (ae.Geo.data_scale < 0.1)

let test_geo_universe_unique_codes () =
  let codes = Array.to_list (Array.map (fun c -> c.Geo.code) Geo.universe) in
  Alcotest.(check int) "unique codes" (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_asn_range_and_spread () =
  let r = rng () in
  let seen = Hashtbl.create 1024 in
  let top = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let asn = Asn.sample r in
    if asn < 1 || asn > Asn.active then Alcotest.fail "asn out of range";
    if asn <= 1_000 then incr top;
    Hashtbl.replace seen asn ()
  done;
  let top_share = float_of_int !top /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "top-1000 share ~0.47 (got %.3f)" top_share)
    true
    (Float.abs (top_share -. Asn.top1000_share) < 0.02);
  Alcotest.(check bool) "thousands of ASes" true (Hashtbl.length seen > 5_000)

(* --- population / behavior / churn --- *)

let small_consensus () =
  Torsim.Netgen.generate
    ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 120 }
    (Prng.Rng.create 31)

let test_population_build () =
  let c = small_consensus () in
  let pop =
    Population.build
      ~config:{ Population.default with Population.selective = 200; promiscuous = 5 }
      c (rng ())
  in
  Alcotest.(check int) "size" 205 (Population.size pop);
  let promiscuous =
    Array.to_list (Population.clients pop)
    |> List.filter (fun cl -> cl.Torsim.Client.kind = Torsim.Client.Promiscuous)
  in
  Alcotest.(check int) "promiscuous count" 5 (List.length promiscuous);
  (* distinct IPs *)
  let ips = Array.to_list (Array.map (fun cl -> cl.Torsim.Client.ip) (Population.clients pop)) in
  Alcotest.(check int) "unique ips" 205 (List.length (List.sort_uniq compare ips))

let test_population_ip_offset () =
  let c = small_consensus () in
  let pop1 =
    Population.build ~config:{ Population.default with Population.selective = 10; promiscuous = 0 }
      c (rng ())
  in
  let pop2 =
    Population.build
      ~config:
        { Population.default with Population.selective = 10; promiscuous = 0;
          ip_offset = Population.last_ip pop1 }
      c (rng ())
  in
  let all =
    Array.to_list (Array.map (fun cl -> cl.Torsim.Client.ip) (Population.clients pop1))
    @ Array.to_list (Array.map (fun cl -> cl.Torsim.Client.ip) (Population.clients pop2))
  in
  Alcotest.(check int) "no ip reuse across populations" 20
    (List.length (List.sort_uniq compare all))

let test_behavior_day_totals () =
  let c = small_consensus () in
  let e = Torsim.Engine.create ~seed:5 c in
  let pop =
    Population.build ~config:{ Population.default with Population.selective = 300; promiscuous = 0 }
      c (rng ())
  in
  Behavior.run_population_day e pop (rng ());
  let t = Torsim.Engine.truth e in
  let per_client_conns = float_of_int t.Torsim.Ground_truth.connections /. 300.0 in
  Alcotest.(check bool)
    (Printf.sprintf "connections per client ~13.5 (got %.1f)" per_client_conns)
    true
    (Float.abs (per_client_conns -. 13.5) < 2.0);
  Alcotest.(check bool) "circuits > connections" true
    (t.Torsim.Ground_truth.data_circuits + t.Torsim.Ground_truth.directory_circuits
    > t.Torsim.Ground_truth.connections);
  Alcotest.(check bool) "bytes positive" true (t.Torsim.Ground_truth.entry_bytes > 0.0)

let test_churn_turnover () =
  let c = small_consensus () in
  let churn =
    Churn.create
      ~config:
        {
          Churn.default with
          Churn.base = { Population.default with Population.selective = 1_000; promiscuous = 10 };
        }
      c (rng ())
  in
  let ips_of pop =
    Array.to_list (Array.map (fun cl -> cl.Torsim.Client.ip) (Population.clients pop))
  in
  let day1 = ips_of (Churn.population churn) in
  Churn.next_day churn (rng ());
  let day2 = ips_of (Churn.population churn) in
  Alcotest.(check int) "population size stable" (List.length day1) (List.length day2);
  let shared = List.filter (fun ip -> List.mem ip day1) day2 in
  let kept = float_of_int (List.length shared) /. float_of_int (List.length day1) in
  Alcotest.(check bool)
    (Printf.sprintf "~62%% kept (got %.2f)" kept)
    true
    (Float.abs (kept -. 0.62) < 0.03)

let test_churn_four_day_growth () =
  let c = small_consensus () in
  let churn =
    Churn.create
      ~config:
        {
          Churn.default with
          Churn.base = { Population.default with Population.selective = 1_000; promiscuous = 0 };
        }
      c (rng ())
  in
  let seen = Hashtbl.create 4096 in
  let absorb () =
    Array.iter
      (fun cl -> Hashtbl.replace seen cl.Torsim.Client.ip ())
      (Population.clients (Churn.population churn))
  in
  absorb ();
  let day1 = Hashtbl.length seen in
  for _ = 1 to 3 do
    Churn.next_day churn (rng ());
    absorb ()
  done;
  let day4 = Hashtbl.length seen in
  let ratio = float_of_int day4 /. float_of_int day1 in
  (* daily turnover 0.38 over 3 more days => ~2.1x *)
  Alcotest.(check bool) (Printf.sprintf "4-day ratio ~2.1 (got %.2f)" ratio) true
    (ratio > 1.9 && ratio < 2.3)

(* --- onion activity --- *)

let test_onion_activity_rates () =
  let c = small_consensus () in
  let e = Torsim.Engine.create ~seed:9 c in
  let config =
    {
      Onion_activity.default with
      Onion_activity.services = 200;
      total_fetches = 20_000;
      rend_total = 10_000;
    }
  in
  Onion_activity.run ~config e (rng ());
  let t = Torsim.Engine.truth e in
  let fail_rate =
    float_of_int t.Torsim.Ground_truth.descriptor_fetch_failed
    /. float_of_int t.Torsim.Ground_truth.descriptor_fetches
  in
  Alcotest.(check bool)
    (Printf.sprintf "fail rate ~0.909 (got %.3f)" fail_rate)
    true
    (Float.abs (fail_rate -. 0.909) < 0.02);
  let rend_total = float_of_int t.Torsim.Ground_truth.rend_circuits in
  let success = float_of_int t.Torsim.Ground_truth.rend_success /. rend_total in
  let expired = float_of_int t.Torsim.Ground_truth.rend_expired /. rend_total in
  Alcotest.(check bool) (Printf.sprintf "success ~0.08 (got %.3f)" success) true
    (Float.abs (success -. 0.0808) < 0.02);
  (* the paper's outcome shares sum to 97.35%, so the simulator's
     expired share is structurally ~87.6% (1 - success - closed) *)
  Alcotest.(check bool) (Printf.sprintf "expired ~0.87 (got %.3f)" expired) true
    (Float.abs (expired -. 0.8755) < 0.02);
  Alcotest.(check int) "all services published" 200
    (Torsim.Ground_truth.unique_published_onions t)

let test_exit_traffic_stream_split () =
  let c = small_consensus () in
  let e = Torsim.Engine.create ~seed:9 c in
  let pop =
    Population.build ~config:{ Population.default with Population.selective = 100; promiscuous = 0 }
      c (rng ())
  in
  Exit_traffic.run e pop (rng ()) ~visits:5_000;
  let t = Torsim.Engine.truth e in
  Alcotest.(check int) "initial = visits" 5_000 t.Torsim.Ground_truth.streams_initial;
  let initial_fraction =
    float_of_int t.Torsim.Ground_truth.streams_initial
    /. float_of_int t.Torsim.Ground_truth.streams_total
  in
  Alcotest.(check bool)
    (Printf.sprintf "initial ~5%% (got %.3f)" initial_fraction)
    true
    (Float.abs (initial_fraction -. 0.05) < 0.01)

let prop_suffix_registered_is_suffix =
  QCheck.Test.make ~name:"registered domain is a suffix of the host" ~count:300
    QCheck.(int_range 0 100_000)
    (fun k ->
      let host = "www." ^ Domains.tail_name k in
      match Suffix.registered_domain host with
      | None -> false
      | Some reg ->
        String.length reg <= String.length host
        && String.sub host (String.length host - String.length reg) (String.length reg) = reg)

(* The index-scanning Suffix implementation must agree with the
   list-based reference on arbitrary hostnames, including the nasty
   shapes real splitting produces: empty labels, leading/trailing dots,
   uppercase, bare suffixes, unknown TLDs. The generator is biased
   toward known suffix labels so both branches of the classifier get
   exercised. *)
let hostname_gen =
  let label =
    QCheck.Gen.oneof
      [
        QCheck.Gen.oneofl
          [ "www"; "a"; "cdn7"; "Google"; "amazon"; ""; "x-y"; "S123"; "torproject" ];
        QCheck.Gen.oneofl ("uk" :: "CO" :: "xyzzy" :: Suffix.one_label_suffixes);
        QCheck.Gen.map (Printf.sprintf "s%d") (QCheck.Gen.int_bound 9_999);
      ]
  in
  QCheck.Gen.(
    oneof
      [
        (* joined labels, 0..5 of them *)
        map (String.concat ".") (list_size (int_bound 5) label);
        (* a known two-label suffix with 0..2 labels in front *)
        map2
          (fun ls suffix -> String.concat "." (ls @ [ suffix ]))
          (list_size (int_bound 2) label)
          (oneofl Suffix.two_label_suffixes);
      ])

let prop_suffix_fast_matches_reference =
  QCheck.Test.make ~name:"fast suffix functions match the list-based reference" ~count:2_000
    (QCheck.make ~print:(fun s -> Printf.sprintf "%S" s) hostname_gen)
    (fun host ->
      Suffix.registered_domain host = Suffix.registered_domain_ref host
      && Suffix.top_level_domain host = Suffix.top_level_domain_ref host)

(* Exceeding the memo bound must not change results: drive more unique
   hostnames through than the table holds, then re-ask early ones. *)
let test_suffix_memo_bound () =
  for i = 0 to 20_000 do
    let host = Printf.sprintf "h%d.example%d.com" i (i land 7) in
    Alcotest.(check (option string))
      host
      (Suffix.registered_domain_ref host)
      (Suffix.registered_domain host)
  done;
  Alcotest.(check (option string))
    "early host again" (Some "example0.com")
    (Suffix.registered_domain "h0.example0.com")

let () =
  Alcotest.run "workload"
    [
      ( "suffix",
        [
          Alcotest.test_case "registered domain" `Quick test_registered_domain;
          Alcotest.test_case "tld" `Quick test_tld;
          Alcotest.test_case "memo bound" `Quick test_suffix_memo_bound;
        ] );
      ( "domains",
        [
          Alcotest.test_case "specials" `Quick test_specials;
          Alcotest.test_case "rank roundtrip" `Quick test_rank_roundtrip;
          Alcotest.test_case "garbage names" `Quick test_rank_of_garbage;
          Alcotest.test_case "in_alexa" `Quick test_in_alexa;
          Alcotest.test_case "sibling families" `Quick test_sibling_families;
          Alcotest.test_case "family_of_name" `Quick test_family_of_name;
          Alcotest.test_case "sibling ranks valid" `Quick test_sibling_ranks_in_list;
          Alcotest.test_case "tail TLDs" `Quick test_tail_names_have_known_tlds;
        ] );
      ( "popularity",
        [
          Alcotest.test_case "headline shares" `Quick test_popularity_shares;
          Alcotest.test_case "tail share" `Quick test_popularity_tail_share;
          Alcotest.test_case "ports and literals" `Quick test_popularity_sample_ports;
        ] );
      ( "geo/asn",
        [
          Alcotest.test_case "country distribution" `Quick test_geo_distribution;
          Alcotest.test_case "AE anomaly config" `Quick test_geo_ae_modifiers;
          Alcotest.test_case "unique codes" `Quick test_geo_universe_unique_codes;
          Alcotest.test_case "asn spread" `Quick test_asn_range_and_spread;
        ] );
      ( "population",
        [
          Alcotest.test_case "build" `Quick test_population_build;
          Alcotest.test_case "ip offset" `Quick test_population_ip_offset;
          Alcotest.test_case "behavior day" `Quick test_behavior_day_totals;
          Alcotest.test_case "churn turnover" `Quick test_churn_turnover;
          Alcotest.test_case "churn 4-day growth" `Quick test_churn_four_day_growth;
        ] );
      ( "activity",
        [
          Alcotest.test_case "onion rates" `Quick test_onion_activity_rates;
          Alcotest.test_case "exit stream split" `Quick test_exit_traffic_stream_split;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_suffix_registered_is_suffix;
          QCheck_alcotest.to_alcotest prop_suffix_fast_matches_reference;
        ] );
    ]
