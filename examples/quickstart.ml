(* Quickstart: build a small simulated Tor network, attach a PrivCount
   deployment to a few exit relays, drive a day of traffic, and publish
   a differentially private stream count.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. a synthetic consensus of 200 relays and the simulation engine *)
  let rng = Prng.Rng.create 7 in
  let consensus =
    Torsim.Netgen.generate ~config:{ Torsim.Netgen.default with Torsim.Netgen.relays = 200 } rng
  in
  let engine = Torsim.Engine.create ~seed:7 consensus in

  (* 2. observer relays: ~5% of exit weight, like running a few relays *)
  let observers =
    Torsim.Consensus.pick_observers_by_weight consensus rng ~role:`Exit ~target_fraction:0.05
  in
  let fraction = Torsim.Consensus.exit_fraction consensus observers in
  Printf.printf "observing %d exit relays holding %.2f%% of exit weight\n"
    (List.length observers) (100.0 *. fraction);

  (* 3. a PrivCount deployment: 1 TS, 3 SKs, one DC per observer; one
     counter for exit streams with the paper's (eps, delta) = (0.3, 1e-11) *)
  let specs = [ Privcount.Counter.spec ~name:"streams" ~sensitivity:1.0 ] in
  let deployment =
    Privcount.Deployment.create
      (Privcount.Deployment.config ~split_budget:false specs)
      ~num_dcs:(List.length observers) ~seed:7
  in
  let streams = Privcount.Deployment.counter_id deployment "streams" in
  List.iteri
    (fun dc relay_id ->
      Torsim.Engine.add_sink engine relay_id
        (Privcount.Deployment.sink_for deployment ~dc (fun emit -> function
          | Torsim.Event.Exit_stream _ -> emit streams 1
          | _ -> ())))
    observers;

  (* 4. one simulated day of web traffic *)
  let population =
    Workload.Population.build
      ~config:{ Workload.Population.default with Workload.Population.selective = 500; promiscuous = 0 }
      consensus rng
  in
  Workload.Exit_traffic.run engine population rng ~visits:20_000;

  (* 5. tally: the TS unblinds the noisy aggregate; extrapolate by 1/p *)
  let results = Privcount.Deployment.tally deployment in
  let r = Privcount.Ts.value_exn results "streams" in
  let network = Stats.Extrapolate.count ~fraction r.Privcount.Ts.value in
  let network_ci = Stats.Extrapolate.count_ci ~fraction r.Privcount.Ts.ci in
  let truth = Torsim.Engine.truth engine in
  Printf.printf "noisy local count : %.0f (sigma %.1f)\n" r.Privcount.Ts.value r.Privcount.Ts.sigma;
  Printf.printf "network inference : %.0f, 95%% CI [%.0f; %.0f]\n" network
    network_ci.Stats.Ci.lo network_ci.Stats.Ci.hi;
  Printf.printf "ground truth      : %d streams\n" truth.Torsim.Ground_truth.streams_total;
  (* the published CI carries only the DP noise, as in the paper; the
     few percent of residual error is weighted-sampling variance *)
  let err =
    Float.abs (network -. float_of_int truth.Torsim.Ground_truth.streams_total)
    /. float_of_int truth.Torsim.Ground_truth.streams_total
  in
  Printf.printf "relative error    : %.2f%% (DP noise + sampling variance)\n" (100.0 *. err)
