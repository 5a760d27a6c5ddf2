(* Table 6: unique v2 onion addresses published to and fetched from the
   HSDir DHT, measured with PSC at HSDir observers and extrapolated via
   descriptor replication (§6.1). *)

type outcome = {
  report : Report.t;
  published_network : float;
  fetched_network : Stats.Ci.t;
}

let pick_hsdir_observers setup ~count =
  let hsdirs = Array.copy (Torsim.Consensus.hsdir_ids setup.Harness.consensus) in
  Prng.Rng.shuffle setup.Harness.rng hsdirs;
  Array.to_list (Array.sub hsdirs 0 (min count (Array.length hsdirs)))

let run ?(seed = 50) ?(services = 4_000) () =
  let setup = Harness.make_setup ~seed () in
  let ring = Torsim.Engine.hsdir_ring setup.Harness.engine in
  (* two observer sets: a larger one for publishes (paper: 2.75% publish
     weight) and a smaller disjoint-ish one for fetches (0.534%) *)
  let n_ring = Torsim.Hsdir_ring.size ring in
  let pub_observers = pick_hsdir_observers setup ~count:(max 3 (n_ring * 27 / 1000)) in
  let fetch_observers = pick_hsdir_observers setup ~count:(max 1 (n_ring * 6 / 1000)) in
  (* visibility computed from the observers' actual arc share of the
     ring, not just their headcount (consistent hashing loads relays by
     predecessor gap) *)
  let pub_visibility = Torsim.Hsdir_ring.publish_visibility ring pub_observers in
  let fetch_visibility = Torsim.Hsdir_ring.fetch_visibility ring fetch_observers in
  let flips =
    Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3
  in
  let make observers seed =
    let cfg =
      Psc.Protocol.config
        ~table_size:(Harness.psc_table_size ~expected_items:services)
        ~num_cps:3 ~noise_flips_per_cp:flips ~dp:Dp.Mechanism.paper_params ()
    in
    Psc.Protocol.create cfg ~num_dcs:(List.length observers) ~seed
  in
  let p_pub = make pub_observers seed in
  let p_fetch = make fetch_observers (seed + 1) in
  Harness.attach_psc setup p_pub ~observer_ids:pub_observers ~items:(fun event ->
      match event with
      | Torsim.Event.Descriptor_published { address; _ } -> [ address ]
      | _ -> []);
  Harness.attach_psc setup p_fetch ~observer_ids:fetch_observers ~items:(fun event ->
      match event with
      | Torsim.Event.Descriptor_fetch { address; result = Torsim.Event.Fetch_ok _ } -> [ address ]
      | _ -> []);
  let config = { Workload.Onion_activity.default with Workload.Onion_activity.services } in
  Workload.Onion_activity.run ~config setup.Harness.engine setup.Harness.rng;
  let truth = Torsim.Engine.truth setup.Harness.engine in
  let t_published = Torsim.Ground_truth.unique_published_onions truth in
  let t_fetched = Torsim.Ground_truth.unique_fetched_onions truth in
  let r_pub = Psc.Protocol.run p_pub in
  let r_fetch = Psc.Protocol.run p_fetch in
  let pub_net = r_pub.Psc.Protocol.estimate /. pub_visibility in
  let pub_net_ci = Stats.Ci.scale r_pub.Psc.Protocol.ci (1.0 /. pub_visibility) in
  let fetch_net_ci =
    (* a fetched address is seen if any of its fetches lands at an
       observer: between once-fetched (prob = fetch visibility) and
       heavily-fetched (prob ~ 1) — hence the paper-style wide
       conservative range *)
    Stats.Extrapolate.unique_range_ci ~fraction:fetch_visibility r_fetch.Psc.Protocol.ci
  in
  let fetch_net_mid = Stats.Ci.midpoint fetch_net_ci in
  let paper3 (v, (lo, hi)) =
    Printf.sprintf "%s [%s; %s]" (Report.fmt_count v) (Report.fmt_count lo) (Report.fmt_count hi)
  in
  let rows =
    [
      Report.row ~label:"addresses published (local)"
        ~paper:(Printf.sprintf "%s @ 2.75%%" (Report.fmt_count Paper.table6_local_published))
        ~measured:(Report.fmt_count_ci r_pub.Psc.Protocol.estimate r_pub.Psc.Protocol.ci)
        ~truth:(string_of_int (Psc.Protocol.true_union_size p_pub))
        ~ok:
          (Stats.Ci.contains r_pub.Psc.Protocol.ci
             (float_of_int (Psc.Protocol.true_union_size p_pub))) ();
      Report.row ~label:"addresses published (network)"
        ~paper:(paper3 Paper.table6_published)
        ~measured:(Report.fmt_count_ci pub_net pub_net_ci)
        ~truth:(string_of_int t_published)
        ~ok:(Stats.Ci.contains (Stats.Ci.scale pub_net_ci 1.15) (float_of_int t_published)) ();
      Report.row ~label:"addresses fetched (network)"
        ~paper:(paper3 Paper.table6_fetched)
        ~measured:(Printf.sprintf "%s %s" (Report.fmt_count fetch_net_mid) (Report.fmt_ci fetch_net_ci))
        ~truth:(string_of_int t_fetched)
        ~ok:(Stats.Ci.contains fetch_net_ci (float_of_int t_fetched)) ();
      Report.row ~label:"fetched/published ratio"
        ~paper:"45%-100% of services used"
        ~measured:
          (Printf.sprintf "%.0f%%" (100.0 *. float_of_int t_fetched /. float_of_int t_published))
        ~ok:
          (let r = float_of_int t_fetched /. float_of_int t_published in
           r >= 0.4 && r <= 1.0) ();
    ]
  in
  {
    report =
      {
        Report.id = "Table 6";
        title = "Unique onion addresses published/fetched (PSC at HSDirs)";
        scale_note =
          Printf.sprintf
            "%d simulated services (live: ~71k); publish visibility %.2f%%, fetch visibility %.2f%%"
            services (100.0 *. pub_visibility) (100.0 *. fetch_visibility);
        rows;
      };
    published_network = pub_net;
    fetched_network = fetch_net_ci;
  }
