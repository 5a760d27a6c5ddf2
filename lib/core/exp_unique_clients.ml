(* Table 5: locally observed unique client statistics via PSC — unique
   client IPs over one day, unique countries (average of two one-day
   measurements), unique ASes, unique IPs over four days, and the
   implied client churn rate. *)

type outcome = {
  report : Report.t;
  ips_1day : float;
  ips_4day : float;
  churn_per_day : float;
  countries : float;
  ases : float;
}

let flips = Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3

let make_protocol ~expected_items ~num_dcs ~seed =
  let cfg =
    Psc.Protocol.config
      ~table_size:(Harness.psc_table_size ~expected_items)
      ~num_cps:3 ~noise_flips_per_cp:flips ~dp:Dp.Mechanism.paper_params ()
  in
  Psc.Protocol.create cfg ~num_dcs ~seed

(* One day of connection activity: every selective client touches each
   of its guards (data guard plus directory guards, the paper's x3);
   promiscuous clients touch every guard. *)
let run_day engine population rng =
  Array.iter
    (fun client ->
      match client.Torsim.Client.kind with
      | Torsim.Client.Promiscuous -> Torsim.Engine.connect_all_guards engine client
      | Torsim.Client.Selective ->
        Torsim.Engine.connect_all_guards engine client;
        let extra = Prng.Dist.poisson rng ~lambda:6.0 in
        for _ = 1 to extra do
          Torsim.Engine.connect engine client
        done)
    (Workload.Population.clients population)

let run ?(seed = 47) ?(clients = 60_000) () =
  let setup = Harness.make_setup ~seed () in
  let observer_ids, fraction =
    Harness.observers setup ~role:`Guard ~target_fraction:Paper.table5_guard_weight
  in
  let num_dcs = List.length observer_ids in
  let expected_uniques =
    int_of_float (float_of_int clients *. (1.0 -. ((1.0 -. fraction) ** 3.0)))
  in
  let p_ips1 = make_protocol ~expected_items:expected_uniques ~num_dcs ~seed in
  let p_ips4 = make_protocol ~expected_items:(3 * expected_uniques) ~num_dcs ~seed:(seed + 1) in
  let p_cc1 = make_protocol ~expected_items:256 ~num_dcs ~seed:(seed + 2) in
  let p_cc2 = make_protocol ~expected_items:256 ~num_dcs ~seed:(seed + 3) in
  let p_as = make_protocol ~expected_items:(expected_uniques / 2) ~num_dcs ~seed:(seed + 4) in
  let day = ref 0 in
  Harness.attach_psc setup p_ips4 ~observer_ids ~items:(fun event ->
      match event with
      | Torsim.Event.Client_connection { client_ip; _ } ->
        [ Printf.sprintf "ip:%d" client_ip ]
      | _ -> []);
  List.iteri
    (fun dc relay_id ->
      Torsim.Engine.add_sink setup.Harness.engine relay_id (fun event ->
          match event with
          | Torsim.Event.Client_connection { client_ip; country; asn } ->
            if !day = 0 then begin
              Psc.Protocol.insert p_ips1 ~dc (Printf.sprintf "ip:%d" client_ip);
              Psc.Protocol.insert p_cc1 ~dc ("cc:" ^ country);
              Psc.Protocol.insert p_as ~dc (Printf.sprintf "as:%d" asn)
            end;
            if !day = 1 then Psc.Protocol.insert p_cc2 ~dc ("cc:" ^ country)
          | _ -> ()))
    observer_ids;
  (* four days with client churn *)
  let churn =
    Workload.Churn.create
      ~config:
        {
          Workload.Churn.default with
          Workload.Churn.base =
            {
              Workload.Population.default with
              Workload.Population.selective = clients;
              promiscuous = clients / 400;
            };
        }
      setup.Harness.consensus setup.Harness.rng
  in
  let truth_day1 = ref 0 in
  for d = 0 to 3 do
    day := d;
    run_day setup.Harness.engine (Workload.Churn.population churn) setup.Harness.rng;
    if d = 0 then
      truth_day1 :=
        Torsim.Ground_truth.unique_clients (Torsim.Engine.truth setup.Harness.engine);
    if d < 3 then Workload.Churn.next_day churn setup.Harness.rng
  done;
  let truth = Torsim.Engine.truth setup.Harness.engine in
  let truth_4day = Torsim.Ground_truth.unique_clients truth in
  let r_ips1 = Psc.Protocol.run p_ips1 in
  let r_ips4 = Psc.Protocol.run p_ips4 in
  let r_cc1 = Psc.Protocol.run p_cc1 in
  let r_cc2 = Psc.Protocol.run p_cc2 in
  let r_as = Psc.Protocol.run p_as in
  let ips1 = r_ips1.Psc.Protocol.estimate in
  let ips4 = r_ips4.Psc.Protocol.estimate in
  let churn_rate = (ips4 -. ips1) /. 3.0 in
  let cc_avg = (r_cc1.Psc.Protocol.estimate +. r_cc2.Psc.Protocol.estimate) /. 2.0 in
  let truth_ips1 = Psc.Protocol.true_union_size p_ips1 in
  let truth_ips4 = Psc.Protocol.true_union_size p_ips4 in
  let truth_cc = Psc.Protocol.true_union_size p_cc1 in
  let truth_as = Psc.Protocol.true_union_size p_as in
  ignore truth_4day;
  let paper3 (v, (lo, hi)) =
    Printf.sprintf "%s [%s; %s]" (Report.fmt_count v) (Report.fmt_count lo) (Report.fmt_count hi)
  in
  let rows =
    [
      Report.row ~label:"unique IPs (1 day)"
        ~paper:(paper3 Paper.table5_ips)
        ~measured:(Report.fmt_count_ci ips1 r_ips1.Psc.Protocol.ci)
        ~truth:(string_of_int truth_ips1)
        ~ok:(Stats.Ci.contains r_ips1.Psc.Protocol.ci (float_of_int truth_ips1)) ();
      Report.row ~label:"unique countries"
        ~paper:(paper3 Paper.table5_countries)
        ~measured:
          (Printf.sprintf "%.0f (runs: %.0f, %.0f)" cc_avg r_cc1.Psc.Protocol.estimate
             r_cc2.Psc.Protocol.estimate)
        ~truth:(string_of_int truth_cc)
        ~ok:(Float.abs (cc_avg -. float_of_int truth_cc) < 60.0) ();
      Report.row ~label:"unique ASes"
        ~paper:(paper3 Paper.table5_ases)
        ~measured:(Report.fmt_count_ci r_as.Psc.Protocol.estimate r_as.Psc.Protocol.ci)
        ~truth:(string_of_int truth_as)
        ~ok:(Stats.Ci.contains r_as.Psc.Protocol.ci (float_of_int truth_as)) ();
      Report.row ~label:"unique IPs (4 days)"
        ~paper:(paper3 Paper.table5_ips_4day)
        ~measured:(Report.fmt_count_ci ips4 r_ips4.Psc.Protocol.ci)
        ~truth:(string_of_int truth_ips4)
        ~ok:(Stats.Ci.contains r_ips4.Psc.Protocol.ci (float_of_int truth_ips4)) ();
      Report.row ~label:"churn per day"
        ~paper:(paper3 Paper.table5_churn_per_day)
        ~measured:(Report.fmt_count churn_rate)
        ~ok:(churn_rate > 0.0) ();
      Report.row ~label:"IP turnover in 4 days"
        ~paper:"~2x"
        ~measured:(Printf.sprintf "%.2fx" (ips4 /. ips1))
        ~truth:(Printf.sprintf "%.2fx" (float_of_int truth_ips4 /. float_of_int truth_ips1))
        ~ok:(Report.within ~tolerance:0.25 ~expected:2.15 (ips4 /. ips1)) ();
    ]
  in
  {
    report =
      {
        Report.id = "Table 5";
        title = "Locally observed unique client statistics (PSC)";
        scale_note =
          Printf.sprintf "%d simulated clients; guard weight %.2f%%" clients
            (100.0 *. fraction);
        rows;
      };
    ips_1day = ips1;
    ips_4day = ips4;
    churn_per_day = churn_rate;
    countries = cc_avg;
    ases = r_as.Psc.Protocol.estimate;
  }
