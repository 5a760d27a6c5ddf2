type config = {
  specs : Counter.spec list;
  params : Dp.Mechanism.params;
  num_sks : int;
  split_budget : bool;
}

let config ?(num_sks = 3) ?(split_budget = true) ?(params = Dp.Mechanism.paper_params) specs =
  if specs = [] then invalid_arg "Deployment.config: no counters";
  if num_sks < 1 then invalid_arg "Deployment.config: need at least one share keeper";
  { specs; params; num_sks; split_budget }

type t = {
  cfg : config;
  intern : Counter.Intern.t;
  dcs : Dc.t array;
  sks : Sk.t array;
  mutable tallied : bool;
}

(* The (ε, δ) each counter actually spends: the round budget divided
   across counters when [split_budget], the full budget otherwise. *)
let per_counter_params cfg =
  if cfg.split_budget then (Dp.Budget.split cfg.params ~counters:(List.length cfg.specs)).Dp.Budget.per_counter
  else cfg.params

let total_sigma cfg spec =
  Dp.Mechanism.gaussian_sigma (per_counter_params cfg) ~sensitivity:spec.Counter.sensitivity

(* The derivations and checks every party must agree on, shared with
   the bus deployment (lib/privcount/node.ml) so it cannot drift from
   the in-process path. *)

(* Pairwise blinding: DC d and SK k derive identical per-counter shares
   from a shared seed (standing in for PrivCount's encrypted share
   exchange over TLS), drawn in counter-id order. *)
let blinding_row ~seed ~dc ~sk ~counters =
  let drbg =
    Crypto.Drbg.create (Printf.sprintf "privcount-blind|seed=%d|dc=%d|sk=%d" seed dc sk)
  in
  Array.init counters (fun _ -> Crypto.Drbg.uniform drbg Crypto.Secret_sharing.modulus)

let check_blinding ~seed ~dc rows =
  let ok =
    List.for_all
      (fun (sk, row) ->
        Array.for_all2 Int.equal row
          (blinding_row ~seed ~dc ~sk ~counters:(Array.length row)))
      rows
  in
  Obs.Ledger.proof ~kind:"privcount-blinding" ~party:dc ~ok
    ~batch:(List.fold_left (fun n (_, row) -> n + Array.length row) 0 rows)

let noise_rng ~seed = Prng.Rng.create (seed * 7919)

(* Noise is split across DCs so the per-DC variances sum to the total:
   by default equally; with [noise_weights], proportionally to each
   relay's observation weight (PrivCount's allocation — a relay that
   sees more of the network carries more of the noise, so losing a
   small DC costs little privacy). *)
let sigma_per_dc ?noise_weights cfg ~num_dcs =
  let variance_share =
    match noise_weights with
    | None -> Array.make num_dcs (1.0 /. float_of_int num_dcs)
    | Some weights ->
      if Array.length weights <> num_dcs then
        invalid_arg "Deployment.create: noise_weights length mismatch";
      if Array.exists (fun w -> w <= 0.0) weights then
        invalid_arg "Deployment.create: noise_weights must be positive";
      let total = Array.fold_left ( +. ) 0.0 weights in
      Array.map (fun w -> w /. total) weights
  in
  fun ~dc spec -> total_sigma cfg spec *. sqrt variance_share.(dc)

(* Ledger: the round's budget grant up front, then one draw per counter
   in id (= sorted name) order. The grant records what the
   configuration authorizes: with split_budget, ε is divided across the
   counters and the draws sum back to ε; without it the operator has
   opted into per-statistic accounting and every counter is granted the
   full ε. `tormeasure audit` then flags any round that draws beyond
   its own policy. *)
let record_budget cfg intern =
  if Obs.enabled () then begin
    let authorized =
      if cfg.split_budget then 1.0 else float_of_int (List.length cfg.specs)
    in
    Obs.Ledger.grant ~system:"privcount"
      ~epsilon:(authorized *. cfg.params.Dp.Mechanism.epsilon)
      ~delta:(authorized *. cfg.params.Dp.Mechanism.delta);
    let pc = per_counter_params cfg in
    for c = 0 to Counter.Intern.size intern - 1 do
      Obs.Ledger.draw ~system:"privcount" ~counter:(Counter.Intern.name intern c)
        ~mechanism:"gaussian" ~epsilon:pc.Dp.Mechanism.epsilon ~delta:pc.Dp.Mechanism.delta
    done
  end

let create ?noise_weights cfg ~num_dcs ~seed =
  if num_dcs < 1 then invalid_arg "Deployment.create: need at least one DC";
  let jobs = Parallel.jobs () in
  Obs.Ledger.phase "privcount.setup"
    ~attrs:
      [ ("dcs", string_of_int num_dcs); ("sks", string_of_int cfg.num_sks);
        ("counters", string_of_int (List.length cfg.specs));
        ("jobs", string_of_int jobs) ]
  @@ fun () ->
  (* Counter names resolve to dense ids exactly once, here. Ids ascend
     in sorted name order, so id order IS the draw order the round
     always used. *)
  let intern = Counter.Intern.of_specs cfg.specs in
  record_budget cfg intern;
  let sks = Array.init cfg.num_sks (fun id -> Sk.create ~id ~intern ~num_dcs) in
  let noise_rng = noise_rng ~seed in
  let sigma_per_dc = sigma_per_dc ?noise_weights cfg ~num_dcs in
  (* Per-counter blinding shares for every (dc, sk) pair, generated on
     the domain pool. Each pair's DRBG is an independent stream seeded
     only by (seed, dc, sk), and a DC draws its shares in sorted counter
     name order (see Dc.create) — so each worker task can create its own
     stream and draw it to exhaustion without any cross-task draw-order
     dependence. The tensor is bit-identical at any pool size. *)
  let counters = Counter.Intern.size intern in
  let shares_tensor =
    Parallel.parallel_init ~min_chunk:1 (num_dcs * cfg.num_sks) (fun idx ->
        blinding_row ~seed ~dc:(idx / cfg.num_sks) ~sk:(idx mod cfg.num_sks) ~counters)
  in
  (* Absorption into the SKs (and telemetry) stays sequential, on the
     orchestrating domain, in the order the inline draws always ran:
     dc-major, then counter name (= ascending id), then sk. *)
  let dcs =
    Array.init num_dcs (fun id ->
        let blinding ~counter:c =
          List.init cfg.num_sks (fun sk ->
              let share = shares_tensor.((id * cfg.num_sks) + sk).(c) in
              Sk.absorb sks.(sk) ~dc:id ~counter:c share;
              share)
        in
        Dc.create ~id ~intern ~noise_sigma_per_dc:(sigma_per_dc ~dc:id) ~blinding ~noise_rng)
  in
  (* Blinding check: with telemetry on, re-derive every (dc, sk) share
     stream sequentially and compare it against the pool-generated
     tensor — a genuine integrity check that the parallel exchange
     produced exactly the shares the sequential protocol would have —
     and record the outcome per DC in the run ledger. *)
  if Obs.enabled () then
    for dc = 0 to num_dcs - 1 do
      check_blinding ~seed ~dc
        (List.init cfg.num_sks (fun sk -> (sk, shares_tensor.((dc * cfg.num_sks) + sk))))
    done;
  { cfg; intern; dcs; sks; tallied = false }

let counter_id t name =
  match Counter.Intern.find t.intern name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Deployment.counter_id: unknown counter %S" name)

let increment t ~dc ~name ~by =
  if dc < 0 || dc >= Array.length t.dcs then invalid_arg "Deployment.increment: bad dc";
  Dc.increment t.dcs.(dc) ~name ~by

type emit = int -> int -> unit

(* Push-style event sink: [fill emit ev] calls [emit id by] for each
   increment, with ids resolved once via [counter_id] at wiring time.
   Steady-state dispatch allocates nothing — no increment lists, no
   name hashing. *)
let sink_for t ~dc fill =
  if dc < 0 || dc >= Array.length t.dcs then invalid_arg "Deployment.sink_for: bad dc";
  let dcell = t.dcs.(dc) in
  let emit id by = Dc.increment_id dcell ~id ~by in
  fun ev -> fill emit ev

let tally ?(dropped_dcs = []) t =
  if t.tallied then invalid_arg "Deployment.tally: round already tallied";
  List.iter
    (fun dc ->
      if dc < 0 || dc >= Array.length t.dcs then invalid_arg "Deployment.tally: bad dropped dc")
    dropped_dcs;
  Obs.Ledger.phase "privcount.tally"
    ~attrs:
      [ ("dcs", string_of_int (Array.length t.dcs));
        ("counters", string_of_int (List.length t.cfg.specs));
        ("dropped", string_of_int (List.length dropped_dcs)) ]
  @@ fun () ->
  t.tallied <- true;
  (* Dropout recovery: a crashed relay never reports, and the SKs
     exclude exactly its blinding shares so the rest still cancels. Its
     noise contribution is lost with it — the total noise is slightly
     under target, which PrivCount accepts for small dropout counts. *)
  let dc_reports =
    Array.to_list t.dcs
    |> List.filter (fun dc -> not (List.mem (Dc.id dc) dropped_dcs))
    |> List.map Dc.report
  in
  let sk_reports =
    Array.to_list (Array.map (fun sk -> Sk.report ~exclude_dcs:dropped_dcs sk) t.sks)
  in
  Ts.tally ~specs:t.cfg.specs ~sigma_of:(total_sigma t.cfg) ~dc_reports ~sk_reports
