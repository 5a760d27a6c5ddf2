(* The §5.1 headline: direct (PSC) user estimation vs the Tor Metrics
   Portal's directory-request heuristic, run against the same simulated
   network. The paper finds the heuristic underestimates daily users by
   a factor of ~4. *)

type outcome = {
  report : Report.t;
  direct_users : float;
  heuristic_users : float;
  factor : float;
}

let run ?(seed = 53) ?(clients = 80_000) () =
  let setup = Harness.make_setup ~seed () in
  let observer_ids, fraction =
    Harness.observers setup ~role:`Guard ~target_fraction:Paper.table5_guard_weight
  in
  let flips =
    Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3
  in
  let expected =
    int_of_float (float_of_int clients *. (1.0 -. ((1.0 -. fraction) ** 3.0)))
  in
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config
         ~table_size:(Harness.psc_table_size ~expected_items:expected)
         ~num_cps:3 ~noise_flips_per_cp:flips ~dp:Dp.Mechanism.paper_params ())
      ~num_dcs:(List.length observer_ids) ~seed
  in
  Harness.attach_psc setup proto ~observer_ids ~items:(fun event ->
      match event with
      | Torsim.Event.Client_connection { client_ip; _ } -> [ Printf.sprintf "ip:%d" client_ip ]
      | _ -> []);
  (* the Tor-Metrics-style baseline watches directory requests at a
     reporting subset of guards *)
  let baseline = Baseline.Metrics_portal.create () in
  Baseline.Metrics_portal.attach baseline setup.Harness.engine setup.Harness.rng;
  let population =
    Workload.Population.build
      ~config:
        {
          Workload.Population.default with
          Workload.Population.selective = clients;
          promiscuous = clients / 400;
        }
      setup.Harness.consensus setup.Harness.rng
  in
  (* one day: every client touches its guards and performs its consensus
     fetches; real clients fetch fewer consensuses than the heuristic's
     assumed requests-per-user, which is why the heuristic undercounts *)
  Array.iter
    (fun client ->
      (match client.Torsim.Client.kind with
      | Torsim.Client.Promiscuous -> Torsim.Engine.connect_all_guards setup.Harness.engine client
      | Torsim.Client.Selective -> Torsim.Engine.connect_all_guards setup.Harness.engine client);
      let consensus_fetches = Prng.Dist.poisson setup.Harness.rng ~lambda:2.5 in
      for _ = 1 to consensus_fetches do
        Torsim.Engine.directory_circuit setup.Harness.engine client
      done)
    (Workload.Population.clients population);
  let r = Psc.Protocol.run proto in
  (* direct estimate: unique IPs / visibility, divided by guards per
     client (the paper's 313,213 / 0.0119 / 3) *)
  let direct_users = r.Psc.Protocol.estimate /. fraction /. 3.0 in
  let heuristic_users =
    Baseline.Metrics_portal.estimated_daily_users baseline setup.Harness.engine
  in
  let factor = direct_users /. max 1.0 heuristic_users in
  let truth_users = float_of_int clients in
  let rows =
    [
      Report.row ~label:"direct estimate (PSC)"
        ~paper:(Printf.sprintf "~%s users/day" (Report.fmt_count Paper.headline_daily_users))
        ~measured:(Report.fmt_count direct_users)
        ~truth:(Report.fmt_count truth_users)
        ~ok:(Report.within ~tolerance:0.35 ~expected:truth_users direct_users) ();
      Report.row ~label:"Tor Metrics heuristic"
        ~paper:(Printf.sprintf "%s users/day" (Report.fmt_count Paper.tor_metrics_daily_users))
        ~measured:(Report.fmt_count heuristic_users)
        ~ok:(heuristic_users < truth_users) ();
      Report.row ~label:"underestimation factor"
        ~paper:(Printf.sprintf "~%.0fx" Paper.underestimate_factor)
        ~measured:(Printf.sprintf "%.1fx" factor)
        ~ok:(factor > 2.0 && factor < 8.0) ();
    ]
  in
  {
    report =
      {
        Report.id = "Section 5.1";
        title = "Daily users: direct PSC measurement vs Tor Metrics heuristic";
        scale_note =
          Printf.sprintf "%d simulated clients; guard weight %.2f%%" clients (100.0 *. fraction);
        rows;
      };
    direct_users;
    heuristic_users;
    factor;
  }
