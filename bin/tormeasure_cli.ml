(* Command-line driver for the reproduction harness.

     tormeasure list                 # list experiments
     tormeasure run fig2 [-s SEED]   # run one experiment
     tormeasure run-all [-s SEED]    # run every table and figure *)

open Cmdliner

let seed_arg =
  let doc = "Random seed for the simulation (runs are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Size of the domain pool for the parallel crypto kernels, 1 to 128 (default: \
     $(b,REPRO_JOBS) or 1). Results are bit-identical at any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let apply_jobs = function
  | None -> ()
  | Some n ->
    if n < 1 || n > Parallel.max_jobs then begin
      Printf.eprintf "--jobs must be between 1 and %d\n" Parallel.max_jobs;
      exit 1
    end;
    Parallel.set_jobs n

let list_cmd =
  let run () =
    Printf.printf "%-8s %-11s %s\n" "id" "paper" "description";
    Printf.printf "%s\n" (String.make 72 '-');
    List.iter
      (fun e ->
        Printf.printf "%-8s %-11s %s\n" e.Tormeasure.Registry.id e.Tormeasure.Registry.paper_id
          e.Tormeasure.Registry.description)
      (* torlint: allow privflow/transitive-leak — the CLI is the
         reporting endpoint: it compares truth vs pipeline by design *)
      Tormeasure.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all reproducible tables and figures")
    Term.(const run $ const ())

let csv_arg =
  let doc = "Also write the rows as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* --- telemetry plumbing --- *)

let ledger_arg =
  let doc =
    "Write the run ledger (budget draws, proof outcomes, the phase tree with its timings) \
     as JSON lines to $(docv), for $(b,tormeasure audit) and $(b,trace-diff) (enables \
     telemetry)."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

(* Write a file named on the command line, in binary mode so the bytes
   land as given. An unwritable path ends the run with exit 1 and the
   reason, not an uncaught Sys_error. *)
let write_output path contents =
  match Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents) with
  | () -> ()
  | exception Sys_error msg ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix msg then
        String.sub msg (String.length prefix) (String.length msg - String.length prefix)
      else msg
    in
    Printf.eprintf "tormeasure: cannot write %s: %s\n" path reason;
    exit 1

let obs_start ~ledger = if ledger <> None then Obs.set_enabled true

(* Write the run ledger and print its end-of-run summary. *)
let obs_finish ~ledger =
  match ledger with
  | None -> ()
  | Some path ->
    let events = Obs.Ledger.events () in
    write_output path (Obs.Ledger.to_jsonl events);
    Printf.printf "wrote %d ledger events to %s\n\n" (List.length events) path;
    print_string (Obs.Ledger.summary events)

let write_csv path reports =
  match path with
  | None -> ()
  | Some path ->
    write_output path (String.concat "" (List.map Tormeasure.Report.to_csv reports));
    Printf.printf "wrote CSV to %s\n" path

let run_cmd =
  let id_arg =
    let doc = "Experiment id (see $(b,list))." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id seed csv ledger jobs =
    (* torlint: allow privflow/transitive-leak — reports print
       truth-vs-measured rows by design; "raw" is simulator truth *)
    match Tormeasure.Registry.find id with
    | None ->
      Printf.eprintf "unknown experiment %S; try `tormeasure list`\n" id;
      exit 1
    | Some e ->
      apply_jobs jobs;
      obs_start ~ledger;
      let report = Tormeasure.Registry.run_experiment e ~seed in
      Tormeasure.Report.print report;
      write_csv csv [ report ];
      obs_finish ~ledger;
      if not (Tormeasure.Report.all_ok report) then exit 2
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment and print paper-vs-measured rows")
    Term.(const run $ id_arg $ seed_arg $ csv_arg $ ledger_arg $ jobs_arg)

let clients_arg =
  let doc = "Selective clients in the simulated population." in
  Arg.(value & opt int Tormeasure.Netday.default.Tormeasure.Netday.clients
       & info [ "clients" ] ~docv:"N" ~doc)

let shards_arg =
  let doc = "Fixed shard count (independent of $(b,--jobs); results identical at any value)." in
  Arg.(value & opt int Tormeasure.Netday.default.Tormeasure.Netday.shards
       & info [ "shards" ] ~docv:"N" ~doc)

let relays_arg =
  let doc = "Relays in the generated consensus." in
  Arg.(value & opt int Tormeasure.Netday.default.Tormeasure.Netday.relays
       & info [ "relays" ] ~docv:"N" ~doc)

let netday_cmd =
  let run seed jobs clients shards relays ledger =
    apply_jobs jobs;
    obs_start ~ledger;
    let config =
      { Tormeasure.Netday.default with Tormeasure.Netday.clients; shards; relays }
    in
    let t0 = Unix.gettimeofday () in
    (* torlint: allow privflow/transitive-leak — netday prints exact
       tallies on purpose: it benchmarks ingestion, not the pipeline *)
    let r = Tormeasure.Netday.run ~config ~seed () in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "network day: %d events through ingestion in %.3fs (%.0f events/sec)\n"
      r.Tormeasure.Netday.events dt
      (float_of_int r.Tormeasure.Netday.events /. max 1e-9 dt);
    Printf.printf "%d shards, per-shard events: %s\n" shards
      (String.concat " "
         (Array.to_list (Array.map string_of_int r.Tormeasure.Netday.per_shard_events)));
    List.iter (fun (name, v) -> Printf.printf "  %-20s %d\n" name v) r.Tormeasure.Netday.tallies;
    obs_finish ~ledger
  in
  Cmd.v
    (Cmd.info "netday"
       ~doc:
         "Run one sharded whole-network day through the event ingestion path and report \
          events/sec. Deterministic per seed at any $(b,--jobs).")
    Term.(const run $ seed_arg $ jobs_arg $ clients_arg $ shards_arg $ relays_arg $ ledger_arg)

(* --- binary event-trace record / replay --- *)

let print_tallies tallies =
  List.iter (fun (name, v) -> Printf.printf "  %-20s %d\n" name v) tallies

let record_cmd =
  let out_arg =
    let doc = "Recording prefix: one $(docv).segN file is written per shard." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"PREFIX" ~doc)
  in
  let run seed jobs clients shards relays out ledger =
    apply_jobs jobs;
    obs_start ~ledger;
    let config =
      { Tormeasure.Netday.default with Tormeasure.Netday.clients; shards; relays }
    in
    let t0 = Unix.gettimeofday () in
    (* torlint: allow privflow/transitive-leak — like netday, record
       captures exact ingestion tallies by design, not pipeline output *)
    let rec_ = Tormeasure.Netday.record ~config ~seed () in
    let dt = Unix.gettimeofday () -. t0 in
    let paths =
      List.mapi
        (fun shard seg ->
          let path = Tormeasure.Netday.segment_path ~prefix:out ~shard in
          write_output path seg;
          path)
        (Array.to_list rec_.Tormeasure.Netday.segments)
    in
    let r = rec_.Tormeasure.Netday.result in
    let bytes =
      Array.fold_left (fun a s -> a + String.length s) 0 rec_.Tormeasure.Netday.segments
    in
    Printf.printf "recorded %d events across %d shard segment(s) in %.3fs (%d bytes, %.1f B/event)\n"
      r.Tormeasure.Netday.events (List.length paths) dt bytes
      (float_of_int bytes /. float_of_int (max 1 r.Tormeasure.Netday.events));
    List.iter (fun p -> Printf.printf "  wrote %s\n" p) paths;
    print_tallies r.Tormeasure.Netday.tallies;
    obs_finish ~ledger
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run one sharded network day and capture every ingested event into a binary \
          trace segment per shard, for $(b,tormeasure replay). Deterministic per seed.")
    Term.(const run $ seed_arg $ jobs_arg $ clients_arg $ shards_arg $ relays_arg $ out_arg
          $ ledger_arg)

(* Exit codes: 0 ok, 1 unreadable/malformed/mixed segments (typed
   decode errors), 2 when --verify finds replayed counts or tallies
   disagreeing with the recorded headers. *)
let replay_cmd =
  let prefix_arg =
    let doc = "Recording prefix written by $(b,tormeasure record --out)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc)
  in
  let verify_arg =
    let doc =
      "Cross-check the replay against the recorded headers: per-shard event counts and \
       merged tallies must match exactly; exits 2 on any mismatch."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let repeat_arg =
    let doc = "Push every segment through ingestion $(docv) times (throughput runs)." in
    Arg.(value & opt int 1 & info [ "r"; "repeat" ] ~docv:"N" ~doc)
  in
  let run prefix verify repeat jobs ledger =
    if repeat < 1 then begin
      Printf.eprintf "--repeat must be at least 1\n";
      exit 1
    end;
    apply_jobs jobs;
    obs_start ~ledger;
    let segments =
      try Tormeasure.Netday.load_recording ~prefix
      with Evtrace.Error e ->
        Printf.eprintf "replay: %s: %s\n" prefix (Evtrace.error_to_string e);
        exit 1
    in
    let meta = segments.(0).Evtrace.Segment.meta in
    Printf.printf "recording: seed %d, %d shard(s), config %s\n" meta.Evtrace.seed
      meta.Evtrace.shards
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) meta.Evtrace.config));
    let t0 = Unix.gettimeofday () in
    match Tormeasure.Netday.replay ~repeat ~verify segments with
    | exception Evtrace.Mismatch m ->
      Printf.eprintf "replay MISMATCH: %s\n" (Evtrace.mismatch_to_string m);
      exit 2
    | exception Evtrace.Error e ->
      Printf.eprintf "replay: %s\n" (Evtrace.error_to_string e);
      exit 1
    | r ->
      let dt = Unix.gettimeofday () -. t0 in
      let eps =
        float_of_int r.Tormeasure.Netday.replayed_events /. max 1e-9 dt
      in
      Printf.printf
        "replayed %d events through ingestion in %.3fs (%.0f events/sec, repeat %d)\n"
        r.Tormeasure.Netday.replayed_events dt eps repeat;
      Printf.printf "per-shard events: %s\n"
        (String.concat " "
           (Array.to_list
              (Array.map string_of_int r.Tormeasure.Netday.replayed_per_shard)));
      print_tallies r.Tormeasure.Netday.replayed_tallies;
      if verify then
        Printf.printf "verify ok: replay matches the recorded headers exactly\n";
      obs_finish ~ledger
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded event trace straight into the ingestion sink — no torsim, no \
          workload sampling, no per-event allocation — on the parallel pool, merged in \
          shard order. Tallies are byte-identical to the live run at any $(b,--jobs). \
          Exits 2 when $(b,--verify) detects a mismatch against the recorded headers.")
    Term.(const run $ prefix_arg $ verify_arg $ repeat_arg $ jobs_arg $ ledger_arg)

let ablations_cmd =
  let run () =
    (* torlint: allow privflow/transitive-leak — ablations contrast
       noised against un-noised tallies; exposing both is the study *)
    List.iter Tormeasure.Report.print (Tormeasure.Ablations.all ())
  in
  Cmd.v (Cmd.info "ablations" ~doc:"Run the methodology ablation studies")
    Term.(const run $ const ())

let run_all_cmd =
  let run seed csv ledger jobs =
    apply_jobs jobs;
    obs_start ~ledger;
    (* torlint: allow privflow/transitive-leak — same as `run`: the
       report rows are truth-vs-measured comparisons by design *)
    let reports = Tormeasure.Registry.run_all ~seed () in
    write_csv csv reports;
    let failed = List.filter (fun r -> not (Tormeasure.Report.all_ok r)) reports in
    Printf.printf "\n%d/%d experiments fully within shape tolerances\n"
      (List.length reports - List.length failed)
      (List.length reports);
    List.iter (fun r -> Printf.printf "  shape deviations in %s\n" r.Tormeasure.Report.id) failed;
    obs_finish ~ledger;
    (* exit 2 on deviations, like `run` *)
    if failed <> [] then exit 2
  in
  Cmd.v (Cmd.info "run-all" ~doc:"Run every table and figure")
    Term.(const run $ seed_arg $ csv_arg $ ledger_arg $ jobs_arg)

(* Run both pipelines on the deterministic message bus under a
   failure-injection scenario. Exit codes: 0 for a benign outcome, 2
   when honest parties detected misbehaviour, 1 when a
   reference-comparable scenario fails byte-identity (a determinism
   regression, not a protocol outcome, so it takes precedence). *)
let deploy_cmd =
  let scenario_arg =
    let doc =
      "Failure-injection scenario: one of $(b,benign), $(b,dc-crash), $(b,churn), \
       $(b,slow-cp), $(b,malicious-cp), $(b,restart)."
    in
    Arg.(value & opt string "benign" & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let epochs_arg =
    let doc = "Number of measurement epochs." in
    Arg.(value & opt int 2 & info [ "e"; "epochs" ] ~docv:"K" ~doc)
  in
  let checkpoint_arg =
    let doc = "Write the last post-collection checkpoint to $(docv) (binary)." in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let run scenario seed epochs checkpoint ledger jobs =
    match Bus.Scenario.find scenario with
    | None ->
      Printf.eprintf "unknown scenario %S; known scenarios:\n" scenario;
      List.iter
        (fun (s : Bus.Scenario.t) -> Printf.eprintf "  %-12s %s\n" s.name s.summary)
        Bus.Scenario.catalogue;
      exit 1
    | Some sc ->
      if epochs < 1 then begin
        Printf.eprintf "--epochs must be at least 1\n";
        exit 1
      end;
      apply_jobs jobs;
      obs_start ~ledger;
      let cfg = Tormeasure.Deploy.default_config ~seed ~epochs () in
      (* torlint: allow privflow/transitive-leak — restore compares
         checkpointed SK share sums: blinded residues, not raw counts *)
      let o = Tormeasure.Deploy.run cfg sc in
      Printf.printf "scenario %-12s seed %d, %d epoch(s), %d DCs / %d SKs / %d CPs\n"
        sc.name seed epochs cfg.Tormeasure.Deploy.num_dcs cfg.Tormeasure.Deploy.num_sks
        cfg.Tormeasure.Deploy.num_cps;
      List.iter
        (fun (p : Tormeasure.Deploy.publish) ->
          Printf.printf "epoch %d:\n" p.epoch;
          List.iter
            (fun (r : Privcount.Ts.result) ->
              Printf.printf "  privcount %-14s %10.1f  (sigma %7.1f)\n" r.name r.value
                r.sigma)
            p.pc;
          let e = p.psc in
          Printf.printf "  psc union estimate %8.1f  [%.1f, %.1f]  proofs %s\n"
            e.Psc.Protocol.estimate e.Psc.Protocol.ci.Stats.Ci.lo
            e.Psc.Protocol.ci.Stats.Ci.hi
            (if e.Psc.Protocol.proofs_ok then "ok"
             else
               Printf.sprintf "FAILED (culprit CPs: %s)"
                 (String.concat ", " (List.map string_of_int e.Psc.Protocol.culprits)));
          if p.missing_dcs <> [] then
            Printf.printf "  DCs excluded by dropout recovery: %s\n"
              (String.concat ", " (List.map string_of_int p.missing_dcs)))
        o.Tormeasure.Deploy.publishes;
      List.iteri
        (fun epoch (s : Bus.Sched.stats) ->
          Printf.printf "epoch %d bus: %d messages delivered, %d dropped, %d bytes\n"
            epoch s.delivered s.dropped s.bytes)
        o.Tormeasure.Deploy.stats;
      if o.Tormeasure.Deploy.restarts > 0 then
        Printf.printf "restarts from checkpoint: %d\n" o.Tormeasure.Deploy.restarts;
      Printf.printf "published digest: %s\n" o.Tormeasure.Deploy.digest;
      let mismatch =
        Bus.Scenario.reference_comparable sc
        &&
        (* torlint: allow privflow/transitive-leak — the reference is
           the in-process tally; its reports stay blinded until noised *)
        let reference = Tormeasure.Deploy.run_reference cfg sc in
        if String.equal o.Tormeasure.Deploy.digest reference then begin
          Printf.printf "published bytes match the in-process reference pipelines\n";
          false
        end
        else begin
          Printf.printf "MISMATCH: in-process reference digest is %s\n" reference;
          true
        end
      in
      (match checkpoint with
      | None -> ()
      | Some path ->
        (match o.Tormeasure.Deploy.last_checkpoint with
        | None -> ()
        | Some cp ->
          write_output path (Bus.Checkpoint.encode cp);
          Printf.printf "wrote checkpoint (epoch %d, %d parties) to %s\n"
            cp.Bus.Checkpoint.epoch
            (List.length cp.Bus.Checkpoint.entries)
            path));
      obs_finish ~ledger;
      if mismatch then exit 1;
      if o.Tormeasure.Deploy.detected then begin
        Printf.printf "misbehaviour detected; failing the run\n";
        exit 2
      end
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:
         "Run the PrivCount and PSC pipelines as message-passing parties on the \
          deterministic bus, under a failure-injection scenario. Exits 2 if honest \
          parties detect misbehaviour.")
    Term.(const run $ scenario_arg $ seed_arg $ epochs_arg $ checkpoint_arg $ ledger_arg
          $ jobs_arg)

(* Replay a ledger written by --ledger: recompute cumulative budget
   spend, re-check every proof outcome, and fail loudly (exit 2) on any
   violation — the CI gate for unattended runs. *)
let audit_cmd =
  let file_arg =
    let doc = "Ledger JSONL file written by a $(b,--ledger) run." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEDGER" ~doc)
  in
  let run file =
    let text =
      match In_channel.with_open_text file In_channel.input_all with
      | text -> text
      | exception Sys_error msg ->
        Printf.eprintf "audit: %s\n" msg;
        exit 1
    in
    match Obs.Ledger.of_jsonl text with
    | Error msg ->
      Printf.eprintf "audit: %s: %s\n" file msg;
      exit 1
    | Ok events ->
      print_string (Obs.Ledger.summary events);
      let a = Obs.Ledger.audit events in
      if a.Obs.Ledger.ok then
        Printf.printf "audit ok: %d events, %d proofs verified, budgets within grants\n"
          (List.length events) a.Obs.Ledger.proofs_checked
      else begin
        List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) a.Obs.Ledger.violations;
        Printf.printf "audit FAILED: %d violation(s)\n" (List.length a.Obs.Ledger.violations);
        exit 2
      end
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Replay a run ledger and verify it: every proof passed and no system drew more \
          (ε,δ) than it was granted. Exits 2 on any violation.")
    Term.(const run $ file_arg)

let () =
  let info = Cmd.info "tormeasure" ~doc:"Privacy-preserving Tor measurement reproduction" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; run_all_cmd; ablations_cmd; netday_cmd; record_cmd; replay_cmd;
            deploy_cmd; audit_cmd ]))
