(* Determinism rule: aggregation code must reproduce bit-for-bit across
   data collectors and compute parties, so ambient randomness, wall
   clocks, and hash-table iteration order are all banned from the
   measurement libraries.

   Sub-rules:
     determinism/ambient-rng    Random.* (use a seeded Prng.Rng / Drbg)
     determinism/wall-clock     Sys.time, Unix.* (pass time in explicitly)
     determinism/unseeded-hash  Hashtbl.hash and friends (process-varying)
     determinism/hashtbl-order  Hashtbl.iter/fold whose result is not
                                re-sorted before it escapes
     determinism/transitive     scoped code reaching one of the above
                                through a helper outside the scope

   One pass over the call graph. Every unresolved dotted reference the
   graph records (its externs) goes through [classify]; a hit inside
   the determinism scope is a direct finding at the reference.

   Helpers defined outside the scope would hide the primitive from
   scoped callers ([let stamp () = Unix.gettimeofday ()] in some util
   module), so out-of-scope defs with an unwaived hit become taint
   seeds, the taint propagates to callers, and scoped code referencing
   a tainted out-of-scope def is flagged at the boundary edge with the
   chain. [det-exempt] paths (lib/obs by default: phase wall-clock
   timings are by design and zeroed in canonical ledgers) neither seed
   nor propagate; they never hide a direct finding. *)

let hash_fns =
  [ "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param"; "Hashtbl.randomize" ]

(* [Some (rule_id, message)] when the dotted reference [name] is a
   banned primitive; [sorted] says whether an enclosing application
   re-sorts its result. *)
let classify name ~sorted =
  let base =
    if String.starts_with ~prefix:"Stdlib." name then
      String.sub name 7 (String.length name - 7)
    else name
  in
  if String.starts_with ~prefix:"Random." base then
    Some
      ( "determinism/ambient-rng",
        Printf.sprintf
          "%s uses the ambient self-seeding RNG; draw from a seeded Prng.Rng or Crypto.Drbg instead"
          name )
  else if base = "Sys.time" || String.starts_with ~prefix:"Unix." base then
    Some
      ( "determinism/wall-clock",
        Printf.sprintf "%s reads the wall clock; pass time in explicitly" name )
  else if List.mem base hash_fns then
    Some
      ( "determinism/unseeded-hash",
        Printf.sprintf
          "%s may vary across processes; use a keyed hash (Psc.Item.slot / Crypto.Sha256)"
          name )
  else if (base = "Hashtbl.iter" || base = "Hashtbl.fold") && not sorted then
    Some
      ( "determinism/hashtbl-order",
        Printf.sprintf
          "%s visits bindings in unspecified order; sort the result (List.sort) or waive with a justified `torlint: allow` if the accumulation commutes"
          name )
  else None

let global : Global.t =
  {
    Global.id = "determinism";
    doc =
      "bans ambient RNGs, wall clocks, unseeded hashing and unordered Hashtbl \
       iteration in the aggregation libraries, directly or through helpers \
       defined outside them";
    check =
      (fun ctx ->
        let config = ctx.Global.config in
        let g = ctx.Global.graph in
        let scope = Config.scope_of config "determinism" in
        let in_scope path = Config.in_paths path scope in
        let exempt path = Config.in_paths path config.Config.det_exempt in
        let hits (d : Callgraph.def) =
          List.filter_map
            (fun (e : Callgraph.extern) ->
              Option.map
                (fun (rule_id, message) -> (e, rule_id, message))
                (classify e.extern_name ~sorted:e.extern_sorted))
            d.externs
        in
        let defs = Callgraph.defs_in_order g in
        (* direct: every hit inside the scope, reported where it is
           written *)
        List.iter
          (fun d ->
            List.iter
              (fun ((e : Callgraph.extern), rule_id, message) ->
                let path = Global.file_of e.extern_loc in
                if in_scope path then
                  Global.emit ctx ~path ~rule_id ~severity:Diagnostic.Error ~message
                    e.extern_loc)
              (hits d))
          defs;
        (* transitive: out-of-scope helpers with an unwaived hit seed
           taint that flows to their callers *)
        let seeds =
          List.filter_map
            (fun (d : Callgraph.def) ->
              if in_scope d.def_path || exempt d.def_path then None
              else
                List.find_map
                  (fun ((e : Callgraph.extern), rule_id, _) ->
                    let at_site =
                      Diagnostic.v ~path:d.def_path ~rule_id
                        ~severity:Diagnostic.Error ~message:"" e.extern_loc
                    in
                    if ctx.Global.waived at_site then None
                    else Some (d.id, e.extern_name))
                  (hits d))
            defs
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
          defs)
  }
