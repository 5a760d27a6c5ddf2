(* The experiment registry: every table and figure of the paper, with a
   uniform way to run one or all of them. *)

type experiment = {
  id : string;          (* "table1", "fig2", ... *)
  paper_id : string;    (* "Table 1" *)
  description : string;
  run : seed:int -> Report.t;
}

let all =
  [
    {
      id = "table1";
      paper_id = "Table 1";
      description = "Action bounds derived from activity models";
      run = (fun ~seed:_ -> Exp_action_bounds.run ());
    };
    {
      id = "fig1";
      paper_id = "Figure 1";
      description = "Exit streams by type over 24h";
      run = (fun ~seed -> (Exp_exit_streams.run ~seed ()).Exp_exit_streams.report);
    };
    {
      id = "fig2";
      paper_id = "Figure 2";
      description = "Primary domains vs Alexa rank buckets and sibling sets";
      run = (fun ~seed -> (Exp_alexa.run ~seed ()).Exp_alexa.report);
    };
    {
      id = "fig3";
      paper_id = "Figure 3";
      description = "TLD frequencies, all sites vs Alexa-restricted";
      run = (fun ~seed -> (Exp_tld.run ~seed ()).Exp_tld.report);
    };
    {
      id = "table2";
      paper_id = "Table 2";
      description = "Unique second-level domains (PSC) + power-law extrapolation";
      run = (fun ~seed -> (Exp_sld.run ~seed ()).Exp_sld.report);
    };
    {
      id = "table3";
      paper_id = "Table 3";
      description = "Promiscuous clients and network-wide client IPs";
      run = (fun ~seed -> (Exp_guard_model.run ~seed ()).Exp_guard_model.report);
    };
    {
      id = "table4";
      paper_id = "Table 4";
      description = "Network-wide client usage (connections/circuits/data)";
      run = (fun ~seed -> (Exp_client_usage.run ~seed ()).Exp_client_usage.report);
    };
    {
      id = "table5";
      paper_id = "Table 5";
      description = "Unique client IPs, countries, ASes, churn (PSC)";
      run = (fun ~seed -> (Exp_unique_clients.run ~seed ()).Exp_unique_clients.report);
    };
    {
      id = "fig4";
      paper_id = "Figure 4";
      description = "Per-country client usage";
      run = (fun ~seed -> (Exp_geo.run ~seed ()).Exp_geo.report);
    };
    {
      id = "table6";
      paper_id = "Table 6";
      description = "Unique onion addresses published/fetched (PSC at HSDirs)";
      run = (fun ~seed -> (Exp_onion_addresses.run ~seed ()).Exp_onion_addresses.report);
    };
    {
      id = "table7";
      paper_id = "Table 7";
      description = "Descriptor fetches and failure rate";
      run = (fun ~seed -> (Exp_descriptors.run ~seed ()).Exp_descriptors.report);
    };
    {
      id = "table8";
      paper_id = "Table 8";
      description = "Rendezvous circuits and payload";
      run = (fun ~seed -> (Exp_rendezvous.run ~seed ()).Exp_rendezvous.report);
    };
    {
      id = "users";
      paper_id = "Section 5.1";
      description = "Direct user estimate vs Tor Metrics heuristic";
      run = (fun ~seed -> (Exp_user_estimate.run ~seed ()).Exp_user_estimate.report);
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* Instrumented entry point shared by the CLI and [run_all]: one phase
   per experiment, carrying its wall time and its own allocation. *)
let run_experiment e ~seed =
  Obs.Ledger.phase ("experiment." ^ e.id) ~attrs:[ ("paper_id", e.paper_id) ] (fun () ->
      e.run ~seed)

let run_all ?(seed = 1) () =
  List.map
    (fun e ->
      let report = run_experiment e ~seed in
      Report.print report;
      report)
    all
