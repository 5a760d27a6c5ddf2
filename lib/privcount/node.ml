(* Bus-hosted PrivCount parties. The determinism-critical parts — which
   DRBG streams exist and in what order each party draws from them —
   are shared with the in-process path through Deployment's exported
   derivations, so "byte-identical published tallies" is a structural
   property, not a coincidence the tests happen to observe. *)

type cfg = {
  round : Deployment.config;
  num_dcs : int;
  seed : int;
}

let intern_of cfg = Counter.Intern.of_specs cfg.round.Deployment.specs

(* ------------------------------------------------------------------ *)
(* Data collector *)

type dc = {
  dc_id : int;
  dc_cell : Dc.t;
  mutable report_override : (string * int) list option;
}

(* the checkpointed residues after a restore, else the live cell's *)
let dc_report t =
  Wire.Dc_report
    (match t.report_override with Some entries -> entries | None -> Dc.report t.dc_cell)

let spawn_dc sched ~epoch cfg ~id =
  let intern = intern_of cfg in
  let n = Counter.Intern.size intern in
  let sigma = Deployment.sigma_per_dc cfg.round ~num_dcs:cfg.num_dcs in
  (* Fast-forward the shared noise RNG: the in-process round draws
     noise dc-major (dc 0's counters, then dc 1's, ...) from one
     stream. Replaying the earlier DCs' draws — same sigmas, same
     order — lands this DC's own draws at exactly the positions the
     in-process path gives them. *)
  let rng = Deployment.noise_rng ~seed:cfg.seed in
  for dc = 0 to id - 1 do
    for c = 0 to n - 1 do
      ignore
        (Dp.Mechanism.gaussian_noise rng ~sigma:(sigma ~dc (Counter.Intern.spec intern c))
          : float)
    done
  done;
  (* The DC's blinding rows toward each SK; the SKs re-derive and
     verify the same values. *)
  let num_sks = cfg.round.Deployment.num_sks in
  let rows =
    Array.init num_sks (fun sk -> Deployment.blinding_row ~seed:cfg.seed ~dc:id ~sk ~counters:n)
  in
  let blinding ~counter = List.init num_sks (fun sk -> rows.(sk).(counter)) in
  let cell =
    Dc.create ~id ~intern ~noise_sigma_per_dc:(sigma ~dc:id) ~blinding ~noise_rng:rng
  in
  let t = { dc_id = id; dc_cell = cell; report_override = None } in
  (* share exchange: one message per SK, the whole row at once *)
  for sk = 0 to num_sks - 1 do
    Wire.post sched ~epoch ~src:(Bus.Party.Dc id) ~dst:(Bus.Party.Sk sk)
      (Wire.Blind_shares { sk; counters = rows.(sk) })
  done;
  Bus.Sched.register sched (Bus.Party.Dc id) (fun env ->
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok Wire.Report_request ->
          Wire.post sched ~epoch:env.Bus.Envelope.epoch ~src:(Bus.Party.Dc id)
            ~dst:Bus.Party.Ts (dc_report t);
          true
      | Ok _ | Error _ -> false);
  t

let dc_increment t ~name ~by = Dc.increment t.dc_cell ~name ~by

let dc_state t = Wire.encode (dc_report t)

let dc_load t blob =
  match Wire.decode ~kind:"pc.dc_report" blob with
  | Ok (Wire.Dc_report entries) ->
      t.report_override <- Some entries;
      Obs.Ledger.proof ~kind:"bus-restore-dc" ~party:t.dc_id ~ok:true
        ~batch:(List.length entries);
      Ok ()
  | Ok _ -> Error (Bus.Codec.Invalid "not a dc report")
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Share keeper *)

type sk = { sk_id : int; sk_cell : Sk.t; sk_counters : int }

let spawn_sk sched cfg ~id =
  let intern = intern_of cfg in
  let n = Counter.Intern.size intern in
  let cell = Sk.create ~id ~intern ~num_dcs:cfg.num_dcs in
  Bus.Sched.register sched (Bus.Party.Sk id) (fun env ->
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok (Wire.Blind_shares { sk; counters }) ->
          let dc =
            match env.Bus.Envelope.src with
            | Bus.Party.Dc d -> d
            | p ->
                invalid_arg
                  (Printf.sprintf "Node.sk: blinding row from non-DC %s"
                     (Bus.Party.to_string p))
          in
          if sk <> id || Array.length counters <> n then
            invalid_arg "Node.sk: misrouted blinding row";
          (* the share exchange's integrity check, across the wire *)
          Deployment.check_blinding ~seed:cfg.seed ~dc [ (id, counters) ];
          Array.iteri (fun counter share -> Sk.absorb cell ~dc ~counter share) counters;
          true
      | Ok (Wire.Sk_report_request { exclude_dcs }) ->
          Wire.post sched ~epoch:env.Bus.Envelope.epoch ~src:(Bus.Party.Sk id)
            ~dst:Bus.Party.Ts
            (Wire.Sk_report (Sk.report ~exclude_dcs cell));
          true
      | Ok _ | Error _ -> false);
  { sk_id = id; sk_cell = cell; sk_counters = n }

let sk_state t = Wire.encode (Wire.Sk_report (Sk.report t.sk_cell))

let sk_check t blob =
  let ok =
    match Wire.decode ~kind:"pc.sk_report" blob with
    | Ok (Wire.Sk_report entries) -> entries = Sk.report t.sk_cell
    | Ok _ | Error _ -> false
  in
  Obs.Ledger.proof ~kind:"bus-restore-sk" ~party:t.sk_id ~ok
    ~batch:t.sk_counters;
  ok

(* ------------------------------------------------------------------ *)
(* Tally server *)

type ts = {
  ts_sched : Bus.Sched.t;
  ts_cfg : cfg;
  mutable requested : int list;
  mutable dc_reports : (int * (string * int) list) list;
  mutable sk_reports : (int * (string * int) list) list;
}

let spawn_ts sched cfg =
  let t =
    { ts_sched = sched; ts_cfg = cfg; requested = []; dc_reports = []; sk_reports = [] }
  in
  Deployment.record_budget cfg.round (intern_of cfg);
  Bus.Sched.register sched Bus.Party.Ts (fun env ->
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok (Wire.Dc_report entries) ->
          (match env.Bus.Envelope.src with
          | Bus.Party.Dc d -> t.dc_reports <- (d, entries) :: t.dc_reports
          | _ -> invalid_arg "Node.ts: DC report from non-DC");
          true
      | Ok (Wire.Sk_report entries) ->
          (match env.Bus.Envelope.src with
          | Bus.Party.Sk k -> t.sk_reports <- (k, entries) :: t.sk_reports
          | _ -> invalid_arg "Node.ts: SK report from non-SK");
          true
      | Ok _ | Error _ -> false);
  t

let ts_request_reports t ~epoch ~dcs =
  t.requested <- List.sort_uniq compare (t.requested @ dcs);
  List.iter
    (fun dc ->
      Wire.post t.ts_sched ~epoch ~src:Bus.Party.Ts ~dst:(Bus.Party.Dc dc)
        Wire.Report_request)
    dcs

let ts_missing_dcs t =
  List.filter (fun dc -> not (List.mem_assoc dc t.dc_reports)) t.requested

let ts_close t ~epoch =
  let exclude_dcs = ts_missing_dcs t in
  for sk = 0 to t.ts_cfg.round.Deployment.num_sks - 1 do
    Wire.post t.ts_sched ~epoch ~src:Bus.Party.Ts ~dst:(Bus.Party.Sk sk)
      (Wire.Sk_report_request { exclude_dcs })
  done

let ts_publish t =
  let by_id reports = List.sort compare reports |> List.map snd in
  let results =
    Ts.tally ~specs:t.ts_cfg.round.Deployment.specs
      ~sigma_of:(Deployment.total_sigma t.ts_cfg.round)
      ~dc_reports:(by_id t.dc_reports) ~sk_reports:(by_id t.sk_reports)
  in
  (results, Wire.encode_results results)
