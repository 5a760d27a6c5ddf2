(* Figure 2: frequency of primary-domain membership in Alexa rank
   buckets (top) and in the sibling sets of the Alexa top-10 sites
   (bottom). Two separate PrivCount measurements, as in the paper
   (2018-01-31 and 2018-02-01). *)

type outcome = {
  report : Report.t;
  torproject_pct : float;
  amazon_pct : float;
  alexa_coverage_pct : float;
}

let strip_www host =
  if String.length host > 4 && String.sub host 0 4 = "www." then
    String.sub host 4 (String.length host - 4)
  else host

let rank_buckets = [ (10, "(0,10]"); (100, "(10,100]"); (1_000, "(100,1k]"); (10_000, "(1k,10k]"); (100_000, "(10k,100k]"); (1_000_000, "(100k,1m]") ]

let bucket_of_rank rank =
  let rec go = function
    | [] -> "other"
    | (hi, label) :: rest -> if rank <= hi then label else go rest
  in
  go rank_buckets

let classify_rank host =
  let host = strip_www host in
  let registered = Option.value ~default:host (Workload.Suffix.registered_domain host) in
  if registered = Workload.Domains.torproject then "torproject"
  else
    match Workload.Domains.rank_of_name host with
    | Some rank -> bucket_of_rank rank
    | None -> (
      match Workload.Domains.rank_of_name registered with
      | Some rank -> bucket_of_rank rank
      | None -> "other")

let classify_family host =
  let host = strip_www host in
  match Workload.Domains.family_of_name host with
  | Some family -> family
  | None -> "other"

(* One PrivCount histogram measurement over the primary domains of a
   fresh day of exit traffic. With [psc_unique], a PSC round counting
   the unique primary domains rides along on the same simulated traffic
   — a cardinality cross-check of the histogram's support (reported as
   a diagnostic row; the paper sized its tables the same way, §4.2). *)
let measure ?(psc_unique = false) ~seed ~visits ~bins ~classify () =
  let setup = Harness.make_setup ~seed () in
  let observer_ids, fraction = Harness.observers setup ~role:`Exit ~target_fraction:0.022 in
  let sensitivity = max 1.0 (20.0 *. (float_of_int visits /. 1.0e8)) in
  let specs = Privcount.Counter.histogram_specs ~name:"domains" ~sensitivity bins in
  (* one protected user's 20 daily domain connections move at most 20
     units across ALL bins of this histogram, so the single action bound
     covers the round jointly and the budget is not split per bin *)
  let deployment =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~split_budget:false specs)
      ~num_dcs:(List.length observer_ids) ~seed
  in
  (* Bin labels resolve to counter ids once; per event there is one
     classify call and one small-table lookup, no "<name>:<bin>" string
     building. Bins outside the round's set are dropped, matching the
     name-based path's behaviour. *)
  let bin_ids = Hashtbl.create (2 * List.length bins) in
  List.iter
    (fun bin ->
      Hashtbl.replace bin_ids bin
        (Privcount.Deployment.counter_id deployment
           (Privcount.Counter.bin_name ~name:"domains" ~bin)))
    bins;
  let sink emit = function
    | Torsim.Event.Exit_stream { kind = Torsim.Event.Initial; dest = Torsim.Event.Hostname h; port }
      when Torsim.Event.is_web_port port -> (
      match Hashtbl.find_opt bin_ids (classify h) with
      | Some id -> emit id 1
      | None -> ())
    | _ -> ()
  in
  Harness.attach_privcount setup deployment ~observer_ids ~sink;
  let psc_proto =
    if not psc_unique then None
    else begin
      let expected_observed = max 1_024 (int_of_float (float_of_int visits *. fraction)) in
      let cfg =
        Psc.Protocol.config
          ~table_size:(Harness.psc_table_size ~expected_items:expected_observed)
          ~num_cps:3
          ~noise_flips_per_cp:
            (Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3)
          ~dp:Dp.Mechanism.paper_params ()
      in
      let proto = Psc.Protocol.create cfg ~num_dcs:(List.length observer_ids) ~seed in
      Harness.attach_psc setup proto ~observer_ids ~items:(fun event ->
          match event with
          | Torsim.Event.Exit_stream
              { kind = Torsim.Event.Initial; dest = Torsim.Event.Hostname h; port }
            when Torsim.Event.is_web_port port -> (
            let stripped = strip_www h in
            match Workload.Suffix.registered_domain stripped with
            | Some d -> [ d ]
            | None -> [ stripped ])
          | _ -> []);
      Some proto
    end
  in
  let population =
    Workload.Population.build
      ~config:{ Workload.Population.default with Workload.Population.selective = 1_000; promiscuous = 0 }
      setup.Harness.consensus setup.Harness.rng
  in
  let config =
    { Workload.Exit_traffic.default with Workload.Exit_traffic.subsequent_mean = 0.0 }
  in
  Workload.Exit_traffic.run ~config setup.Harness.engine population setup.Harness.rng ~visits;
  let results = Privcount.Deployment.tally deployment in
  let psc_unique_domains =
    Option.map
      (fun proto ->
        let truth = Psc.Protocol.true_union_size proto in
        (Psc.Protocol.run proto, truth))
      psc_proto
  in
  let values =
    List.map
      (fun bin ->
        let r = Privcount.Ts.value_exn results (Privcount.Counter.bin_name ~name:"domains" ~bin) in
        (bin, max 0.0 r.Privcount.Ts.value))
      bins
  in
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 values in
  (List.map (fun (bin, v) -> (bin, 100.0 *. v /. total)) values, fraction, psc_unique_domains)

let run ?(seed = 43) ?(visits = 150_000) () =
  (* measurement 1: rank buckets, with the PSC unique-domains round
     riding along on the same traffic *)
  let rank_bins = List.map snd rank_buckets @ [ "torproject"; "other" ] in
  let rank_pcts, fraction1, psc_unique =
    measure ~psc_unique:true ~seed ~visits ~bins:rank_bins ~classify:classify_rank ()
  in
  (* measurement 2: sibling families *)
  let families =
    Workload.Domains.top10_basenames @ [ "duckduckgo"; "torproject"; "other" ]
  in
  let family_pcts, _fraction2, _ =
    measure ~seed:(seed + 1) ~visits ~bins:families ~classify:classify_family ()
  in
  let pct bins name = Option.value ~default:0.0 (List.assoc_opt name bins) in
  let torproject_pct = pct rank_pcts "torproject" in
  let amazon_pct = pct family_pcts "amazon" in
  let google_pct = pct family_pcts "google" in
  let coverage = 100.0 -. pct rank_pcts "other" -. torproject_pct in
  let alexa_coverage_pct = coverage +. torproject_pct in
  let bucket_rows =
    List.map
      (fun (label, paper_pct) ->
        let v = pct rank_pcts label in
        Report.row ~label:("rank " ^ label) ~paper:(Printf.sprintf "%.1f%%" paper_pct)
          ~measured:(Printf.sprintf "%.1f%%" v)
          ~ok:(Float.abs (v -. paper_pct) < 4.0)
          ())
      Paper.fig2_rank_buckets
  in
  let family_rows =
    List.map
      (fun (label, paper_pct) ->
        let v = pct family_pcts label in
        Report.row ~label:("siblings " ^ label) ~paper:(Printf.sprintf "%.1f%%" paper_pct)
          ~measured:(Printf.sprintf "%.1f%%" v)
          ~ok:(Float.abs (v -. paper_pct) < 3.0)
          ())
      Paper.fig2_siblings
  in
  (* cardinality cross-check rides along as a diagnostic (no shape
     verdict: the paper reports no unique-primary-domain count) *)
  let psc_rows =
    match psc_unique with
    | None -> []
    | Some (r, truth) ->
      [ Report.row ~label:"unique primary domains (PSC)" ~paper:"(not reported)"
          ~measured:(Report.fmt_count_ci r.Psc.Protocol.estimate r.Psc.Protocol.ci)
          ~truth:(string_of_int truth) () ]
  in
  let rows =
    Report.row ~label:"torproject.org (rank msmt)"
      ~paper:(Printf.sprintf "%.1f%%" Paper.fig2_torproject_rank_pct)
      ~measured:(Printf.sprintf "%.1f%%" torproject_pct)
      ~ok:(Float.abs (torproject_pct -. Paper.fig2_torproject_rank_pct) < 4.0)
      ()
    :: Report.row ~label:"torproject (siblings msmt)"
         ~paper:(Printf.sprintf "%.1f%%" Paper.fig2_torproject_siblings_pct)
         ~measured:(Printf.sprintf "%.1f%%" (pct family_pcts "torproject"))
         ~ok:(Float.abs (pct family_pcts "torproject" -. Paper.fig2_torproject_siblings_pct) < 4.0)
         ()
    :: Report.row ~label:"Alexa coverage"
         ~paper:(Printf.sprintf "~%.0f%%" (100.0 *. Paper.fig2_alexa_coverage))
         ~measured:(Printf.sprintf "%.1f%%" alexa_coverage_pct)
         ~ok:(Float.abs (alexa_coverage_pct -. (100.0 *. Paper.fig2_alexa_coverage)) < 7.0)
         ()
    :: (bucket_rows @ family_rows @ psc_rows)
  in
  ignore google_pct;
  {
    report =
      {
        Report.id = "Figure 2";
        title = "Primary domains vs Alexa rank buckets and top-10 sibling sets";
        scale_note =
          Printf.sprintf "%d visits per measurement; exit weight %.2f%%" visits
            (100.0 *. fraction1);
        rows;
      };
    torproject_pct;
    amazon_pct;
    alexa_coverage_pct;
  }
