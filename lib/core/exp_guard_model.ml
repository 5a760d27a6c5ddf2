(* Table 3: inferring the network-wide client-IP population and the
   promiscuous-client count from two unique-IP measurements taken with
   disjoint guard relay sets of different weights (§5.1). *)

type outcome = {
  report : Report.t;
  fits : Stats.Guard_model.fit list;
  pure_g_range : (int * int) option;
}

(* Two disjoint observer sets from one shuffled pool. *)
let disjoint_guard_sets setup ~f1 ~f2 =
  let consensus = setup.Harness.consensus in
  let pool = Array.copy (Torsim.Consensus.guard_ids consensus) in
  Prng.Rng.shuffle setup.Harness.rng pool;
  let total = Torsim.Consensus.total_guard_weight consensus in
  let take start target =
    let rec go i acc acc_w =
      if acc_w >= target *. total || i >= Array.length pool then (acc, i)
      else
        let id = pool.(i) in
        go (i + 1) (id :: acc) (acc_w +. Torsim.Relay.guard_weight (Torsim.Consensus.relay consensus id))
    in
    go start [] 0.0
  in
  let set1, next = take 0 f1 in
  let set2, _ = take next f2 in
  (set1, set2)

(* One light day: every client contacts each of its guards exactly once
   (enough for unique-IP counting; the curvature signal that separates g
   from the promiscuous population needs large counts, so the population
   here is big and everything else minimal). *)
let run_light_day engine population =
  Array.iter
    (fun client -> Torsim.Engine.connect_all_guards engine client)
    (Workload.Population.clients population)

let run ?(seed = 48) ?(clients = 600_000) ?(promiscuous = 1_800) () =
  let setup = Harness.make_setup ~relays:900 ~seed () in
  let set1, set2 = disjoint_guard_sets setup ~f1:(fst Paper.table3_m1) ~f2:(fst Paper.table3_m2) in
  let f1 = Torsim.Consensus.guard_fraction setup.Harness.consensus set1 in
  let f2 = Torsim.Consensus.guard_fraction setup.Harness.consensus set2 in
  let expected g f = float_of_int clients *. (1.0 -. ((1.0 -. f) ** float_of_int g)) in
  let make set fr seed =
    let cfg =
      Psc.Protocol.config
        ~table_size:
          (Harness.psc_table_size ~expected_items:(int_of_float (expected 3 fr) + promiscuous))
        ~num_cps:3
        ~noise_flips_per_cp:
          (Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3)
        ~dp:Dp.Mechanism.paper_params ()
    in
    let proto = Psc.Protocol.create cfg ~num_dcs:(List.length set) ~seed in
    Harness.attach_psc setup proto ~observer_ids:set ~items:(fun event ->
        match event with
        | Torsim.Event.Client_connection { client_ip; _ } -> [ Printf.sprintf "ip:%d" client_ip ]
        | _ -> []);
    proto
  in
  let p1 = make set1 f1 seed in
  let p2 = make set2 f2 (seed + 1) in
  let population =
    Workload.Population.build
      ~config:
        {
          Workload.Population.default with
          Workload.Population.selective = clients;
          promiscuous;
        }
      setup.Harness.consensus setup.Harness.rng
  in
  run_light_day setup.Harness.engine population;
  let r1 = Psc.Protocol.run p1 and r2 = Psc.Protocol.run p2 in
  let m1 = { Stats.Guard_model.fraction = f1; count_ci = r1.Psc.Protocol.ci } in
  let m2 = { Stats.Guard_model.fraction = f2; count_ci = r2.Psc.Protocol.ci } in
  let pure_g_range = Stats.Guard_model.consistent_g_range m1 m2 () in
  let fits =
    List.filter_map (fun g -> Stats.Guard_model.fit_promiscuous m1 m2 ~g ()) [ 3; 4; 5 ]
  in
  let paper_rows =
    List.map
      (fun (g, (p_lo, p_hi), (n_lo, n_hi)) ->
        let fit = List.find_opt (fun f -> f.Stats.Guard_model.g = g) fits in
        let measured, ok =
          match fit with
          | None -> ("no consistent fit", Some false)
          | Some fit ->
            ( Printf.sprintf "promisc %s, IPs %s"
                (Report.fmt_ci fit.Stats.Guard_model.promiscuous)
                (Report.fmt_ci fit.Stats.Guard_model.network_ips),
              (* only the true model (g = 3) must cover the simulated
                 truth; g = 4, 5 are the paper's alternative readings and
                 legitimately imply smaller populations *)
              Some
                (if g = 3 then
                   Stats.Ci.contains fit.Stats.Guard_model.network_ips (float_of_int clients)
                   && Stats.Ci.contains fit.Stats.Guard_model.promiscuous
                        (float_of_int promiscuous)
                 else true) )
        in
        Report.row
          ~label:(Printf.sprintf "g = %d" g)
          ~paper:
            (Printf.sprintf "promisc [%s; %s], IPs [%s; %s]" (Report.fmt_count p_lo)
               (Report.fmt_count p_hi) (Report.fmt_count n_lo) (Report.fmt_count n_hi))
          ~measured
          ~truth:(Printf.sprintf "promisc %d, IPs %d" promiscuous clients)
          ?ok ())
      Paper.table3
  in
  let pure_row =
    let lo, hi = Paper.table3_pure_g_range in
    Report.row ~label:"pure model g-range"
      ~paper:(Printf.sprintf "[%d; %d] (implausible => promiscuous clients exist)" lo hi)
      ~measured:
        (match pure_g_range with
        | None -> "no g consistent"
        | Some (a, b) -> Printf.sprintf "[%d; %d]" a b)
      ~ok:
        (match pure_g_range with
        | None -> true (* also rejects the pure model *)
        | Some (a, _) -> a > 5 (* must be implausibly high, as in the paper *))
      ()
  in
  let count_row =
    Report.row ~label:"unique IPs per set"
      ~paper:
        (Printf.sprintf "%s @ %.2f%%, %s @ %.2f%%"
           (Report.fmt_count (snd Paper.table3_m1))
           (100.0 *. fst Paper.table3_m1)
           (Report.fmt_count (snd Paper.table3_m2))
           (100.0 *. fst Paper.table3_m2))
      ~measured:
        (Printf.sprintf "%s @ %.2f%%, %s @ %.2f%%"
           (Report.fmt_count r1.Psc.Protocol.estimate)
           (100.0 *. f1)
           (Report.fmt_count r2.Psc.Protocol.estimate)
           (100.0 *. f2))
      ()
  in
  {
    report =
      {
        Report.id = "Table 3";
        title = "Promiscuous clients and network-wide client IPs (guard-contact model)";
        scale_note =
          Printf.sprintf
            "%d selective + %d promiscuous simulated clients (live: ~11M); disjoint guard sets"
            clients promiscuous;
        rows = count_row :: pure_row :: paper_rows;
      };
    fits;
    pure_g_range;
  }
