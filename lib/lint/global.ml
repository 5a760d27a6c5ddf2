(* The whole-program rule framework: a global rule sees the call graph
   of every parsed source at once, instead of one structure at a time.
   Per-file rules stay in [Rule]; the call-graph families (determinism,
   privflow, domain-safety) are [Global.t]s run by the engine after
   graph construction. *)

type ctx = {
  config : Config.t;
  graph : Callgraph.t;
  emit : Diagnostic.t -> unit;
  waived : Diagnostic.t -> bool;
      (* would this diagnostic be suppressed at its site? Global rules
         use it to honor allow comments on seed sites (a waived
         primitive use must not taint its callers), and it marks the
         matching allows as used. *)
}

type t = {
  id : string;  (* family name, e.g. "domainsafety" *)
  doc : string;  (* one-line description for torlint --rules *)
  check : ctx -> unit;
}

let emit ctx ~path ~rule_id ~severity ~message loc =
  ctx.emit (Diagnostic.v ~path ~rule_id ~severity ~message loc)

let file_of (loc : Location.t) = loc.loc_start.pos_fname

let pp_chain chain = String.concat " -> " chain
