(* Table 2: unique second-level domains accessed through our exits,
   measured with PSC (all SLDs with a known public suffix, and SLDs of
   Alexa-listed sites), plus the power-law Monte-Carlo extrapolation of
   the Alexa-SLD count to the whole network (§4.3). *)

type outcome = {
  report : Report.t;
  slds_estimate : float;
  alexa_slds_estimate : float;
  network_alexa_slds : Stats.Ci.t;
}

let sld_of host =
  Workload.Suffix.registered_domain (Exp_alexa.strip_www host)

let run ?(seed = 45) ?(visits = 900_000) ?(mc_trials = 40) () =
  let setup = Harness.make_setup ~seed () in
  let observer_ids, fraction =
    Harness.observers setup ~role:`Exit ~target_fraction:Paper.table2_exit_weight
  in
  let num_dcs = List.length observer_ids in
  let expected_observed = int_of_float (float_of_int visits *. fraction) in
  let make_protocol () =
    let cfg =
      Psc.Protocol.config
        ~table_size:(Harness.psc_table_size ~expected_items:(max 1_024 expected_observed))
        ~num_cps:3
        ~noise_flips_per_cp:
          (Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3)
        ~dp:Dp.Mechanism.paper_params ()
    in
    Psc.Protocol.create cfg ~num_dcs ~seed
  in
  let all_proto = make_protocol () in
  let alexa_proto = make_protocol () in
  (* both measurements share one simulated day of traffic; the paper ran
     them a week apart, which our seeding stands in for *)
  Harness.attach_psc setup all_proto ~observer_ids ~items:(fun event ->
      match event with
      | Torsim.Event.Exit_stream
          { kind = Torsim.Event.Initial; dest = Torsim.Event.Hostname h; port }
        when Torsim.Event.is_web_port port -> (
        match sld_of h with Some sld -> [ sld ] | None -> [])
      | _ -> []);
  Harness.attach_psc setup alexa_proto ~observer_ids ~items:(fun event ->
      match event with
      | Torsim.Event.Exit_stream
          { kind = Torsim.Event.Initial; dest = Torsim.Event.Hostname h; port }
        when Torsim.Event.is_web_port port -> (
        let stripped = Exp_alexa.strip_www h in
        if Workload.Domains.in_alexa stripped then
          match sld_of h with Some sld -> [ sld ] | None -> []
        else [])
      | _ -> []);
  let population =
    Workload.Population.build
      ~config:
        { Workload.Population.default with Workload.Population.selective = 1_000; promiscuous = 0 }
      setup.Harness.consensus setup.Harness.rng
  in
  let config =
    { Workload.Exit_traffic.default with Workload.Exit_traffic.subsequent_mean = 0.0 }
  in
  Workload.Exit_traffic.run ~config setup.Harness.engine population setup.Harness.rng ~visits;
  let truth_all = Psc.Protocol.true_union_size all_proto in
  let truth_alexa = Psc.Protocol.true_union_size alexa_proto in
  let all_result = Psc.Protocol.run all_proto in
  let alexa_result = Psc.Protocol.run alexa_proto in
  (* Monte-Carlo power-law extrapolation of the Alexa-SLD count *)
  let alexa_draws_observed =
    int_of_float (float_of_int visits *. fraction *. 0.6 (* rough alexa share of visits *))
  in
  let mc =
    Stats.Powerlaw.extrapolate_unique setup.Harness.rng ~universe:Workload.Domains.list_size
      ~observed_distinct:(int_of_float alexa_result.Psc.Protocol.estimate)
      ~observed_draws:(max 1 alexa_draws_observed) ~fraction ~trials:mc_trials ()
  in
  let paper_val (v, (lo, hi)) = Printf.sprintf "%s [%s; %s]" (Report.fmt_count v) (Report.fmt_count lo) (Report.fmt_count hi) in
  let rows =
    [
      Report.row ~label:"unique SLDs (local)"
        ~paper:(paper_val Paper.table2_slds)
        ~measured:(Report.fmt_count_ci all_result.Psc.Protocol.estimate all_result.Psc.Protocol.ci)
        ~truth:(string_of_int truth_all)
        ~ok:(Stats.Ci.contains all_result.Psc.Protocol.ci (float_of_int truth_all)) ();
      Report.row ~label:"unique Alexa SLDs (local)"
        ~paper:(paper_val Paper.table2_alexa_slds)
        ~measured:
          (Report.fmt_count_ci alexa_result.Psc.Protocol.estimate alexa_result.Psc.Protocol.ci)
        ~truth:(string_of_int truth_alexa)
        ~ok:(Stats.Ci.contains alexa_result.Psc.Protocol.ci (float_of_int truth_alexa)) ();
      Report.row ~label:"SLDs >> Alexa sites seen"
        ~paper:"unique SLDs > 10x unique Alexa top-1M sites"
        ~measured:
          (Printf.sprintf "ratio %.1fx"
             (all_result.Psc.Protocol.estimate /. max 1.0 alexa_result.Psc.Protocol.estimate))
        ~ok:(all_result.Psc.Protocol.estimate > 1.5 *. alexa_result.Psc.Protocol.estimate) ();
      Report.row ~label:"network-wide Alexa SLDs (MC)"
        ~paper:(paper_val Paper.table2_network_alexa_slds)
        ~measured:(Report.fmt_ci mc.Stats.Powerlaw.network_distinct)
        ~ok:
          (mc.Stats.Powerlaw.network_distinct.Stats.Ci.hi
           > alexa_result.Psc.Protocol.estimate) ();
    ]
  in
  {
    report =
      {
        Report.id = "Table 2";
        title = "Unique second-level domains (PSC) and power-law extrapolation";
        scale_note =
          Printf.sprintf "%d visits; exit weight %.2f%%" visits (100.0 *. fraction);
        rows;
      };
    slds_estimate = all_result.Psc.Protocol.estimate;
    alexa_slds_estimate = alexa_result.Psc.Protocol.estimate;
    network_alexa_slds = mc.Stats.Powerlaw.network_distinct;
  }
