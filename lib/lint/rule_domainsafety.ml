(* Domain-safety rule (whole-program only): the parallel pipelines are
   correct because workers are pure per index — every chunk writes only
   its own slice, and results merge deterministically at the join,
   where the orchestrating domain alone records telemetry. A worker that
   mutates top-level state (a shared Hashtbl memo, a module-level ref)
   or forces a top-level [lazy] breaks that contract silently: the race
   only shows up as rare corruption at jobs > 1.

   The pass collects top-level mutable bindings from the call graph's
   inventory, computes the set of definitions reachable from closures
   passed to [Parallel.parallel_for/parallel_init/range_for], and
   errors on:

     domainsafety/shared-write   a write to top-level mutable state from
                                 worker-reachable code (or lexically
                                 inside the worker closure)
     domainsafety/lazy-init      worker-reachable code referencing a
                                 top-level [lazy] (forcing races the
                                 initializer across domains)

   [worker-safe] paths (by default lib/parallel itself) are exempt:
   they *are* the synchronization layer. lib/obs is not: its ledger is
   unsynchronised, so a worker that records telemetry is flagged.
   Intentional exceptions take a justified [torlint: allow] at the
   write site. *)

let write_fix =
  "workers must be pure per index: use per-shard accumulators merged at the \
   join, record telemetry after the join on the orchestrating domain, or use \
   Domain.DLS for per-domain memo tables"

let lazy_fix =
  "lazy forcing races the initializer across domains: force it before the \
   parallel region or make the binding eager"

let global : Global.t =
  {
    Global.id = "domainsafety";
    doc =
      "forbids writes to top-level mutable state and lazy forcing in code \
       reachable from Parallel.* worker closures";
    check =
      (fun ctx ->
        let config = ctx.Global.config in
        let g = ctx.Global.graph in
        let safe path = Config.in_paths path config.Config.worker_safe in
        let def_of id = Callgraph.find g id in
        let safe_def id =
          match def_of id with
          | Some d -> safe d.Callgraph.def_path
          | None -> true (* unresolved: out of scope for this pass *)
        in
        let is_lazy id =
          match def_of id with
          | Some d -> d.Callgraph.mutability = Callgraph.Lazy_init && not (safe d.def_path)
          | None -> false
        in
        (* writes and lazy references lexically inside the closure args *)
        List.iter
          (fun (s : Callgraph.site) ->
            List.iter
              (fun (w : Callgraph.use) ->
                if not (safe_def w.target) then
                  Global.emit ctx ~path:s.site_path
                    ~rule_id:"domainsafety/shared-write"
                    ~severity:Diagnostic.Error
                    ~message:
                      (Printf.sprintf
                         "worker closure passed to %s writes top-level mutable \
                          state %s; %s"
                         s.site_primitive w.target write_fix)
                    w.use_loc)
              s.site_writes;
            List.iter
              (fun r ->
                if is_lazy r then
                  Global.emit ctx ~path:s.site_path
                    ~rule_id:"domainsafety/lazy-init"
                    ~severity:Diagnostic.Error
                    ~message:
                      (Printf.sprintf
                         "worker closure passed to %s references top-level \
                          lazy %s; %s"
                         s.site_primitive r lazy_fix)
                    s.site_loc)
              s.site_roots)
          g.Callgraph.sites;
        (* transitive: everything reachable from the worker roots *)
        let seeds =
          List.concat_map
            (fun (s : Callgraph.site) ->
              List.map (fun r -> (r, s.site_enclosing)) s.site_roots)
            g.Callgraph.sites
        in
        let adj n =
          match def_of n with
          | Some d ->
            List.map (fun (u : Callgraph.use) -> (u.target, u.use_loc)) d.uses
          | None -> []
        in
        let reach = Reach.run ~adj ~seeds ~blocked:safe_def in
        List.iter
          (fun (d : Callgraph.def) ->
            if Reach.mem reach d.id && not (safe d.def_path) then begin
              let hit = Option.get (Reach.find reach d.id) in
              (* chain back to the root, reversed to read root -> writer *)
              let provenance () =
                Printf.sprintf "reachable from the worker closure in %s via %s"
                  hit.Reach.payload
                  (Global.pp_chain (List.rev (Reach.chain reach d.id)))
              in
              List.iter
                (fun (w : Callgraph.use) ->
                  if not (safe_def w.target) then
                    Global.emit ctx ~path:d.def_path
                      ~rule_id:"domainsafety/shared-write"
                      ~severity:Diagnostic.Error
                      ~message:
                        (Printf.sprintf
                           "%s writes top-level mutable state %s while %s; %s"
                           d.id w.target (provenance ()) write_fix)
                      w.use_loc)
                d.writes;
              List.iter
                (fun (u : Callgraph.use) ->
                  if is_lazy u.target then
                    Global.emit ctx ~path:d.def_path
                      ~rule_id:"domainsafety/lazy-init"
                      ~severity:Diagnostic.Error
                      ~message:
                        (Printf.sprintf
                           "%s references top-level lazy %s while %s; %s" d.id
                           u.target (provenance ()) lazy_fix)
                      u.use_loc)
                d.uses
            end)
          (Callgraph.defs_in_order g))
  }
