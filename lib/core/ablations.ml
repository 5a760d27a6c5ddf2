(* Ablations of the design choices DESIGN.md calls out: what breaks or
   degrades when a piece of the paper's methodology is removed. *)

(* 1. PSC hash-collision correction: load the table heavily and compare
   the raw occupied-slot count against the occupancy-inverted estimate. *)
let collision_correction ?(seed = 61) () =
  let n_items = 3_000 and table_size = 4_096 in
  let cfg = Psc.Protocol.config ~table_size ~num_cps:3 ~noise_flips_per_cp:32 () in
  let proto = Psc.Protocol.create cfg ~num_dcs:1 ~seed in
  for i = 0 to n_items - 1 do
    Psc.Protocol.insert proto ~dc:0 (Printf.sprintf "item%d" i)
  done;
  let result = Psc.Protocol.run proto in
  let raw_occupied =
    result.Psc.Protocol.raw_nonzero - (result.Psc.Protocol.total_flips / 2)
  in
  let uncorrected_err =
    Float.abs (float_of_int raw_occupied -. float_of_int n_items) /. float_of_int n_items
  in
  let corrected_err =
    Float.abs (result.Psc.Protocol.estimate -. float_of_int n_items) /. float_of_int n_items
  in
  {
    Report.id = "Ablation A";
    title = "PSC hash-collision correction (table load ~73%)";
    scale_note = Printf.sprintf "%d items into %d slots" n_items table_size;
    rows =
      [
        Report.row ~label:"true cardinality" ~paper:"-" ~measured:(string_of_int n_items) ();
        Report.row ~label:"raw occupied slots (no correction)" ~paper:"-"
          ~measured:(Printf.sprintf "%d (err %.1f%%)" raw_occupied (100.0 *. uncorrected_err))
          ~ok:(uncorrected_err > 0.15) ();
        Report.row ~label:"occupancy-inverted estimate" ~paper:"-"
          ~measured:
            (Printf.sprintf "%.0f (err %.1f%%)" result.Psc.Protocol.estimate
               (100.0 *. corrected_err))
          ~ok:(corrected_err < 0.05) ();
      ];
  }

(* 2. Privacy/utility: the paper's eps = 0.3 against cheaper and more
   expensive settings, for a counter with the domain-connection bound. *)
let privacy_utility () =
  let sensitivity = 20.0 and local_count = 30_000.0 in
  let rows =
    List.map
      (fun epsilon ->
        let params = Dp.Mechanism.{ epsilon; delta = 1e-11 } in
        let sigma = Dp.Mechanism.gaussian_sigma params ~sensitivity in
        let ci = Stats.Ci.normal ~value:local_count ~sigma () in
        let rel = Stats.Ci.width ci /. local_count in
        Report.row
          ~label:(Printf.sprintf "eps = %.1f" epsilon)
          ~paper:(if epsilon = 0.3 then "paper setting" else "-")
          ~measured:(Printf.sprintf "sigma %.0f, CI width %.1f%% of count" sigma (100.0 *. rel))
          ())
      [ 0.1; 0.3; 1.0; 3.0 ]
  in
  {
    Report.id = "Ablation B";
    title = "Privacy/utility sweep (sensitivity 20, local count 30k)";
    scale_note = "delta = 1e-11 throughout";
    rows;
  }

(* 3. The initial-stream heuristic (§4.1): counting all streams instead
   of circuit-first streams lets third-party CDN/ad hosts crowd out the
   user-intended destinations. *)
let initial_vs_all_streams ?(seed = 62) ?(visits = 20_000) () =
  let setup = Harness.make_setup ~seed () in
  let engine = setup.Harness.engine in
  let population =
    Workload.Population.build
      ~config:
        { Workload.Population.default with Workload.Population.selective = 500; promiscuous = 0 }
      setup.Harness.consensus setup.Harness.rng
  in
  (* ground-truth tallies over the event stream at ALL exits *)
  let initial_tp = ref 0 and initial_total = ref 0 in
  let all_tp = ref 0 and all_total = ref 0 and all_cdn = ref 0 in
  let classify h =
    let registered = Option.value ~default:h (Workload.Suffix.registered_domain h) in
    if registered = Workload.Domains.torproject then `Torproject
    else if String.length h > 3 && String.sub h 0 3 = "cdn" then `Cdn
    else `Other
  in
  Array.iter
    (fun relay ->
      Torsim.Engine.add_sink engine relay.Torsim.Relay.id (fun event ->
          match event with
          | Torsim.Event.Exit_stream { kind; dest = Torsim.Event.Hostname h; port }
            when Torsim.Event.is_web_port port ->
            let c = classify h in
            incr all_total;
            if c = `Torproject then incr all_tp;
            if c = `Cdn then incr all_cdn;
            if kind = Torsim.Event.Initial then begin
              incr initial_total;
              if c = `Torproject then incr initial_tp
            end
          | _ -> ()))
    (Torsim.Consensus.relays setup.Harness.consensus);
  Workload.Exit_traffic.run engine population setup.Harness.rng ~visits;
  let pct a b = 100.0 *. float_of_int a /. float_of_int (max 1 b) in
  {
    Report.id = "Ablation C";
    title = "Initial-stream heuristic vs counting every stream";
    scale_note = Printf.sprintf "%d visits, ~20 streams each, 55%% third-party resources" visits;
    rows =
      [
        Report.row ~label:"torproject share (initial only)" ~paper:"~40% (paper's method)"
          ~measured:(Printf.sprintf "%.1f%%" (pct !initial_tp !initial_total))
          ~ok:(Float.abs (pct !initial_tp !initial_total -. 40.0) < 5.0) ();
        Report.row ~label:"torproject share (all streams)" ~paper:"diluted"
          ~measured:(Printf.sprintf "%.1f%%" (pct !all_tp !all_total))
          ~ok:(pct !all_tp !all_total < 0.8 *. pct !initial_tp !initial_total) ();
        Report.row ~label:"CDN/ad share (all streams)" ~paper:"crowds the measurement"
          ~measured:(Printf.sprintf "%.1f%%" (pct !all_cdn !all_total))
          ~ok:(pct !all_cdn !all_total > 20.0) ();
      ];
  }

(* 4. One unique-IP measurement cannot separate the model parameters;
   two disjoint relay sets can (Table 3's design). *)
let guard_model_single_vs_dual () =
  let n_sel = 100_000.0 and n_pro = 300.0 and g = 3 in
  let f1 = 0.0042 and f2 = 0.0088 in
  let e1 = Stats.Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g ~f:f1 in
  let e2 = Stats.Guard_model.expected_unique ~n_selective:n_sel ~n_promiscuous:n_pro ~g ~f:f2 in
  let m1 = { Stats.Guard_model.fraction = f1; count_ci = Stats.Ci.make (e1 -. 10.0) (e1 +. 10.0) } in
  let m2 = { Stats.Guard_model.fraction = f2; count_ci = Stats.Ci.make (e2 -. 10.0) (e2 +. 10.0) } in
  (* single measurement: every promiscuous count in [0, e1] is consistent
     (n_selective absorbs the rest), so the implied total spans a wide range *)
  let single_width =
    let lo = (Stats.Guard_model.selective_range m1 ~g ~n_promiscuous:(e1 -. 10.0)).Stats.Ci.lo in
    let hi = (Stats.Guard_model.selective_range m1 ~g ~n_promiscuous:0.0).Stats.Ci.hi in
    hi +. (e1 -. 10.0) -. lo
  in
  let dual = Stats.Guard_model.fit_promiscuous m1 m2 ~g () in
  let dual_width =
    match dual with
    | None -> infinity
    | Some fit -> Stats.Ci.width fit.Stats.Guard_model.network_ips
  in
  {
    Report.id = "Ablation D";
    title = "Guard-contact model: one measurement vs two disjoint sets";
    scale_note =
      Printf.sprintf "truth: %.0f selective + %.0f promiscuous, g = %d" n_sel n_pro g;
    rows =
      [
        Report.row ~label:"implied-total spread, single msmt" ~paper:"unidentifiable"
          ~measured:(Printf.sprintf "%.0f IPs wide" single_width) ();
        Report.row ~label:"implied-total spread, dual msmt" ~paper:"identifiable (Table 3)"
          ~measured:(Printf.sprintf "%.0f IPs wide" dual_width)
          ~ok:(dual_width < single_width /. 2.0) ();
        Report.row ~label:"dual msmt covers truth" ~paper:"-"
          ~measured:
            (match dual with
            | None -> "no fit"
            | Some fit -> Report.fmt_ci fit.Stats.Guard_model.network_ips)
          ~ok:
            (match dual with
            | None -> false
            | Some fit ->
              Stats.Ci.contains fit.Stats.Guard_model.network_ips (n_sel +. n_pro)) ();
      ];
  }

(* 5. Why the paper measures v2 onion addresses only (§6.1): v3 key
   blinding rotates the published address every period, so unique
   counting across periods counts the same service once per period. *)
let v3_unlinkability ?(services = 300) ?(periods = 4) () =
  let drbg = Crypto.Drbg.create "ablation-v3" in
  let identities = List.init services (fun _ -> Torsim.Descriptor.make_identity drbg) in
  let v2_addresses = Hashtbl.create services in
  let v3_addresses = Hashtbl.create (services * periods) in
  let all_valid = ref true in
  List.iter
    (fun identity ->
      for period = 0 to periods - 1 do
        let v2 = Torsim.Descriptor.create_v2 drbg identity ~intro_points:[ 1; 2; 3 ] ~period in
        let v3 = Torsim.Descriptor.create_v3 drbg identity ~intro_points:[ 1; 2; 3 ] ~period in
        if not (Torsim.Descriptor.verify v2 && Torsim.Descriptor.verify v3) then
          all_valid := false;
        Hashtbl.replace v2_addresses v2.Torsim.Descriptor.address ();
        Hashtbl.replace v3_addresses v3.Torsim.Descriptor.address ()
      done)
    identities;
  let v2_count = Hashtbl.length v2_addresses in
  let v3_count = Hashtbl.length v3_addresses in
  {
    Report.id = "Ablation E";
    title = "v2 vs v3 addresses under unique counting (key blinding)";
    scale_note = Printf.sprintf "%d services publishing over %d periods" services periods;
    rows =
      [
        Report.row ~label:"descriptors verify" ~paper:"-" ~measured:(string_of_bool !all_valid)
          ~ok:!all_valid ();
        Report.row ~label:"unique v2 addresses" ~paper:"= services (countable)"
          ~measured:(string_of_int v2_count) ~ok:(v2_count = services) ();
        Report.row ~label:"unique v3 addresses" ~paper:"= services x periods (uncountable)"
          ~measured:(string_of_int v3_count) ~ok:(v3_count = services * periods) ();
      ];
  }

(* 6. PrivEx (the predecessor system) vs PrivCount on the same counts:
   PrivEx's pure-eps Laplace noise vs PrivCount's (eps, delta) Gaussian,
   and the repeatable-phase difference the paper highlights (§7). *)
let privex_vs_privcount ?(seed = 63) () =
  let true_count = 50_000 in
  let num_dcs = 8 in
  let epsilon = 0.3 and sensitivity = 20.0 in
  (* PrivEx epoch *)
  let privex =
    Baseline.Privex.create
      (Baseline.Privex.config ~epsilon ~sensitivity ())
      ~num_dcs ~seed
  in
  for i = 0 to true_count - 1 do
    Baseline.Privex.increment privex ~dc:(i mod num_dcs) ~by:1
  done;
  let privex_value = Baseline.Privex.tally privex in
  (* PrivCount round on the same counts *)
  let deployment =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~split_budget:false
         ~params:Dp.Mechanism.{ epsilon; delta = 1e-11 }
         [ Privcount.Counter.spec ~name:"c" ~sensitivity ])
      ~num_dcs ~seed
  in
  for i = 0 to true_count - 1 do
    Privcount.Deployment.increment deployment ~dc:(i mod num_dcs) ~name:"c" ~by:1
  done;
  let pc = Privcount.Ts.value_exn (Privcount.Deployment.tally deployment) "c" in
  let err v = 100.0 *. Float.abs (v -. float_of_int true_count) /. float_of_int true_count in
  {
    Report.id = "Ablation F";
    title = "PrivEx (Laplace, single epoch) vs PrivCount (Gaussian, repeatable)";
    scale_note =
      Printf.sprintf "true count %d across %d DCs; eps = %.1f, sensitivity %.0f" true_count
        num_dcs epsilon sensitivity;
    rows =
      [
        Report.row ~label:"PrivEx noisy tally" ~paper:"pure eps-DP"
          ~measured:(Printf.sprintf "%.0f (err %.2f%%)" privex_value (err privex_value))
          ~ok:(err privex_value < 2.0) ();
        Report.row ~label:"PrivEx Laplace scale" ~paper:"b = sens/eps"
          ~measured:(Printf.sprintf "%.1f" (Baseline.Privex.scale privex)) ();
        Report.row ~label:"PrivCount noisy tally" ~paper:"(eps, 1e-11)-DP"
          ~measured:(Printf.sprintf "%.0f (err %.2f%%)" pc.Privcount.Ts.value (err pc.Privcount.Ts.value))
          ~ok:(err pc.Privcount.Ts.value < 2.0) ();
        Report.row ~label:"PrivCount sigma" ~paper:"pays for delta > 0"
          ~measured:(Printf.sprintf "%.1f" pc.Privcount.Ts.sigma)
          ~ok:(pc.Privcount.Ts.sigma > Baseline.Privex.scale privex) ();
        Report.row ~label:"repeatable phases" ~paper:"PrivCount only"
          ~measured:"PrivEx epoch closes after one tally" ();
      ];
  }

let all () =
  [
    collision_correction ();
    privacy_utility ();
    initial_vs_all_streams ();
    guard_model_single_vs_dual ();
    v3_unlinkability ();
    privex_vs_privcount ();
  ]
