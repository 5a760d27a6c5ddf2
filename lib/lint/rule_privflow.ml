(* Privacy-flow rule: the safety property PrivCount and PSC exist to
   provide is that raw, pre-noise counter values never reach an output
   sink. Sinks here are the telemetry library, the report layer, and
   the executables; the only module allowed to touch raw aggregates is
   lib/dp, which launders them through a DP mechanism.

   Sub-rules:
     privflow/raw-counter-leak  sink code naming a sensitive accessor
     privflow/transitive-leak   sink code reaching one through helpers

   The sensitive list is seeded with the PrivCount DC/SK raw report
   sums and the PSC ground-truth cardinality, and is extended per repo
   via `sensitive` directives in torlint.config.

   One pass over the call graph. A reference in a sink (outside the
   [launder] paths) whose resolved target, or whose unresolved dotted
   name, matches a sensitive entry is a direct leak; module aliases and
   opens are resolved by the graph, so [module D = Privcount.Dc] ...
   [D.report] is caught like the spelled-out name.

   A one-line wrapper outside the sink ([let grab () = Dc.report dc] in
   some helper module) would launder raw data past the direct check, so
   every definition that transitively reaches a sensitive accessor is
   tainted — through any number of helpers, value bindings, or stored
   closures — and a sink-side reference to a tainted definition outside
   the sink is flagged with the witness chain. [launder] paths block
   propagation: lib/dp remains the one legitimate route from raw
   aggregates to an output. *)

let matches_sensitive ~sensitive name =
  List.exists
    (fun entry -> name = entry || Rule.has_suffix name ~suffix:("." ^ entry))
    sensitive

let global : Global.t =
  {
    Global.id = "privflow";
    doc =
      "bans raw pre-noise counter accessors in output sinks (lib/obs, report \
       layer, bin/) outside DP laundering points, directly or through any \
       chain of helpers";
    check =
      (fun ctx ->
        let config = ctx.Global.config in
        let g = ctx.Global.graph in
        let sens name = matches_sensitive ~sensitive:config.Config.sensitive name in
        let in_launder path = Config.in_paths path config.Config.launder in
        let in_sink path = Config.in_paths path config.Config.sinks in
        let sink_site path = in_sink path && not (in_launder path) in
        let defs = Callgraph.defs_in_order g in
        (* direct: sensitive references written in a sink *)
        let leak name loc =
          let path = Global.file_of loc in
          if sens name && sink_site path then
            Global.emit ctx ~path ~rule_id:"privflow/raw-counter-leak"
              ~severity:Diagnostic.Error
              ~message:
                (Printf.sprintf
                   "%s is a raw pre-noise accessor referenced from an output \
                    sink; route the value through lib/dp (or add a `launder` \
                    path) before it is published"
                   name)
              loc
        in
        List.iter
          (fun (d : Callgraph.def) ->
            List.iter (fun (u : Callgraph.use) -> leak u.target u.use_loc) d.uses;
            List.iter
              (fun (e : Callgraph.extern) -> leak e.extern_name e.extern_loc)
              d.externs)
          defs;
        (* transitive: sink references to tainted defs outside the sink *)
        let blocked id =
          match Callgraph.find g id with
          | Some d -> in_launder d.Callgraph.def_path
          | None -> false
        in
        let seeds =
          List.concat_map
            (fun (d : Callgraph.def) ->
              if sens d.id then [ (d.id, d.id) ]
              else
                match
                  List.find_opt
                    (fun (e : Callgraph.extern) -> sens e.extern_name)
                    d.externs
                with
                | Some e -> [ (d.id, e.extern_name) ]
                | None -> [])
            defs
        in
        let rev = Callgraph.callers g in
        let adj n = Option.value ~default:[] (Hashtbl.find_opt rev n) in
        let taint = Reach.run ~adj ~seeds ~blocked in
        List.iter
          (fun (d : Callgraph.def) ->
            if sink_site d.def_path then
              List.iter
                (fun (u : Callgraph.use) ->
                  match Callgraph.find g u.target with
                  | Some t
                    when Reach.mem taint u.target
                         && (not (sens u.target))
                         && not (in_sink t.def_path) ->
                    let hit = Option.get (Reach.find taint u.target) in
                    let chain = Reach.chain taint u.target in
                    let chain =
                      match List.rev chain with
                      | last :: _ when last <> hit.Reach.payload ->
                        chain @ [ hit.Reach.payload ]
                      | _ -> chain
                    in
                    Global.emit ctx ~path:d.def_path
                      ~rule_id:"privflow/transitive-leak"
                      ~severity:Diagnostic.Error
                      ~message:
                        (Printf.sprintf
                           "%s transitively reaches the raw pre-noise accessor \
                            %s (%s); raw aggregates may only reach a sink \
                            through lib/dp"
                           u.target hit.Reach.payload (Global.pp_chain chain))
                      u.use_loc
                  | _ -> ())
                d.uses)
          defs)
  }
