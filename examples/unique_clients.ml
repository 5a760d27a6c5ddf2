(* Example: how many people use Tor? Counts unique client IPs at a set
   of guard relays with PSC — no relay ever stores an IP address; the
   protocol output is the noisy cardinality of the union.

   Run with:  dune exec examples/unique_clients.exe *)

let () =
  let rng = Prng.Rng.create 3 in
  let consensus =
    Torsim.Netgen.generate ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 300 } rng
  in
  let engine = Torsim.Engine.create ~seed:3 consensus in
  let observers =
    Torsim.Consensus.pick_observers_by_weight consensus rng ~role:`Guard ~target_fraction:0.05
  in
  let fraction = Torsim.Consensus.guard_fraction consensus observers in

  (* PSC with its noise, shuffle and decryption proofs *)
  let flips =
    Psc.Protocol.flips_for_params Dp.Mechanism.paper_params ~sensitivity:1.0 ~num_cps:3
  in
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:16_384 ~num_cps:3 ~noise_flips_per_cp:flips
         ~dp:Dp.Mechanism.paper_params ())
      ~num_dcs:(List.length observers) ~seed:3
  in
  List.iteri
    (fun dc relay_id ->
      Torsim.Engine.add_sink engine relay_id (function
        | Torsim.Event.Client_connection { client_ip; _ } ->
          Psc.Protocol.insert proto ~dc (Printf.sprintf "ip:%d" client_ip)
        | _ -> ()))
    observers;

  (* 20k clients each contact their 3 guards once *)
  let population =
    Workload.Population.build
      ~config:
        { Workload.Population.default with Workload.Population.selective = 20_000; promiscuous = 50 }
      consensus rng
  in
  Array.iter (fun c -> Torsim.Engine.connect_all_guards engine c) (Workload.Population.clients population);

  let result = Psc.Protocol.run proto in
  let truth = Psc.Protocol.true_union_size proto in
  Printf.printf "guards observed      : %d relays, %.2f%% of guard weight\n"
    (List.length observers) (100.0 *. fraction);
  Printf.printf "PSC estimate         : %.0f unique IPs, CI [%.0f; %.0f]\n"
    result.Psc.Protocol.estimate result.Psc.Protocol.ci.Stats.Ci.lo
    result.Psc.Protocol.ci.Stats.Ci.hi;
  Printf.printf "true union           : %d\n" truth;
  Printf.printf "all proofs verified  : %b\n" result.Psc.Protocol.proofs_ok;
  Printf.printf "implied daily users  : %.0f (truth %d)\n"
    (result.Psc.Protocol.estimate /. fraction /. 3.0)
    20_050
