(* Determinism rule: aggregation code must reproduce bit-for-bit across
   data collectors and compute parties, so ambient randomness, wall
   clocks, and hash-table iteration order are all banned from the
   measurement libraries.

   Sub-rules:
     determinism/ambient-rng    Random.* (use a seeded Prng.Rng / Drbg)
     determinism/wall-clock     Sys.time, Unix.* (pass time in explicitly)
     determinism/unseeded-hash  Hashtbl.hash and friends (process-varying)
     determinism/hashtbl-order  Hashtbl.iter/fold whose result is not
                                re-sorted before it escapes *)

let hash_fns =
  [ "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param"; "Hashtbl.randomize" ]

let laundered_by_sort = Rule.laundered_by_sort

let check (ctx : Rule.ctx) structure =
  Rule.iter_expressions structure ~f:(fun ~ancestors e ->
      match Rule.ident_name e with
      | None -> ()
      | Some name ->
        let loc = e.Parsetree.pexp_loc in
        let flag rule_id message =
          Rule.emit ctx ~rule_id ~severity:Diagnostic.Error ~message loc
        in
        if String.length name > 7 && String.sub name 0 7 = "Random." then
          flag "determinism/ambient-rng"
            (Printf.sprintf
               "%s uses the ambient self-seeding RNG; draw from a seeded Prng.Rng or Crypto.Drbg instead"
               name)
        else if name = "Sys.time" || (String.length name > 5 && String.sub name 0 5 = "Unix.") then
          flag "determinism/wall-clock"
            (Printf.sprintf "%s reads the wall clock; pass time in explicitly" name)
        else if List.mem name hash_fns then
          flag "determinism/unseeded-hash"
            (Printf.sprintf
               "%s may vary across processes; use a keyed hash (Psc.Item.slot / Crypto.Sha256)"
               name)
        else if name = "Hashtbl.iter" || name = "Hashtbl.fold" then
          if not (laundered_by_sort ~ancestors) then
            flag "determinism/hashtbl-order"
              (Printf.sprintf
                 "%s visits bindings in unspecified order; sort the result (List.sort) or waive with a justified `torlint: allow` if the accumulation commutes"
                 name))

let rule : Rule.t =
  {
    Rule.id = "determinism";
    doc =
      "bans ambient RNGs, wall clocks, unseeded hashing and unordered Hashtbl \
       iteration in the aggregation libraries";
    applies =
      (fun config ~path -> Config.in_paths path (Config.scope_of config "determinism"));
    check;
  }

(* v2, interprocedural: the per-file pass only sees files inside the
   determinism scope, so a helper defined outside it ([let stamp () =
   Unix.gettimeofday ()] in some util module) hides the primitive from
   scoped callers. Here, out-of-scope defs using a banned primitive
   (without a justified allow at the use site) become taint seeds, the
   taint propagates to callers, and scoped code referencing a tainted
   out-of-scope def is flagged at the boundary edge with the chain.
   [det-exempt] paths (lib/obs by default: phase wall-clock timings are
   by design and zeroed in canonical ledgers) neither seed nor
   propagate. *)

let classify_extern name ~sorted =
  let name =
    let p = "Stdlib." in
    let lp = String.length p in
    if String.length name > lp && String.sub name 0 lp = p then
      String.sub name lp (String.length name - lp)
    else name
  in
  if String.length name > 7 && String.sub name 0 7 = "Random." then
    Some "determinism/ambient-rng"
  else if name = "Sys.time" || (String.length name > 5 && String.sub name 0 5 = "Unix.")
  then Some "determinism/wall-clock"
  else if List.mem name hash_fns then Some "determinism/unseeded-hash"
  else if (name = "Hashtbl.iter" || name = "Hashtbl.fold") && not sorted then
    Some "determinism/hashtbl-order"
  else None

let global : Global.t =
  {
    Global.id = "determinism";
    doc =
      "flags scoped code transitively reaching banned primitives through \
       helpers defined outside the scoped directories";
    check =
      (fun ctx ->
        let config = ctx.Global.config in
        let g = ctx.Global.graph in
        let scope = Config.scope_of config "determinism" in
        let in_scope path = Config.in_paths path scope in
        let exempt path = Config.in_paths path config.Config.det_exempt in
        let seeds =
          List.filter_map
            (fun (d : Callgraph.def) ->
              if in_scope d.def_path || exempt d.def_path then None
              else
                List.find_map
                  (fun (e : Callgraph.extern) ->
                    match
                      classify_extern e.extern_name ~sorted:e.extern_sorted
                    with
                    | Some rule_id ->
                      let at_site =
                        Diagnostic.v ~path:d.def_path ~rule_id
                          ~severity:Diagnostic.Error ~message:"" e.extern_loc
                      in
                      if ctx.Global.waived at_site then None
                      else Some (d.id, e.extern_name)
                    | None -> None)
                  d.externs)
            (Callgraph.defs_in_order g)
        in
        let blocked id =
          match Callgraph.find g id with
          | Some d -> exempt d.Callgraph.def_path
          | None -> false
        in
        let rev = Callgraph.callers g in
        let adj n = Option.value ~default:[] (Hashtbl.find_opt rev n) in
        let taint = Reach.run ~adj ~seeds ~blocked in
        List.iter
          (fun (d : Callgraph.def) ->
            if in_scope d.def_path && not (exempt d.def_path) then
              List.iter
                (fun (u : Callgraph.use) ->
                  match Callgraph.find g u.target with
                  | Some t
                    when Reach.mem taint u.target
                         && (not (in_scope t.def_path))
                         && not (exempt t.def_path) ->
                    let hit = Option.get (Reach.find taint u.target) in
                    let chain = Reach.chain taint u.target in
                    let chain =
                      match List.rev chain with
                      | last :: _ when last <> hit.Reach.payload ->
                        chain @ [ hit.Reach.payload ]
                      | _ -> chain
                    in
                    Global.emit ctx ~path:d.def_path
                      ~rule_id:"determinism/transitive"
                      ~severity:Diagnostic.Error
                      ~message:
                        (Printf.sprintf
                           "%s is defined outside the determinism scope and \
                            transitively reaches %s (%s); make the helper \
                            deterministic or waive at the primitive use site"
                           u.target hit.Reach.payload (Global.pp_chain chain))
                      u.use_loc
                  | _ -> ())
                d.uses)
          (Callgraph.defs_in_order g))
  }
