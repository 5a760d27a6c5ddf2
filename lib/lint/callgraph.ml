(* Cross-module call graph over parsed sources.

   Canonical naming is flat per compilation unit: the definition [f] at
   the top of [lib/privcount/dc.ml] is the node ["Dc.report" ->
   "Dc.f"], and a nested [module Segment = struct let encode = ... end]
   in [evtrace.ml] is ["Evtrace.Segment.encode"]. References written
   through a dune library wrapper ("Privcount.Dc.report",
   "Tormeasure.Registry.all") resolve by dropping leading path segments
   until a known definition matches, so the graph needs no knowledge of
   dune's wrapping scheme.

   The construction is deliberately conservative (over-approximating
   reachability): every identifier reference inside a definition's body
   becomes an edge, whether the target is called, partially applied,
   stored in a record field, or passed as a closure. Higher-order
   escapes are therefore visible at the point where the function value
   is mentioned, which is what the transitive rules need. Known blind
   spots, accepted and documented in DESIGN.md §7b: calls through
   record fields or first-class module values ([e.run seed]) have no
   named callee and produce no edge (the escape was already recorded
   where the closure was stored), and a functor body is analyzed once
   against its formal parameter, so taint does not flow from actual
   functor arguments into instantiations. [module A = B] aliases and
   functor applications are expanded by prefix rewriting. *)

type mutability =
  | Immutable
  | Mut of string  (* the constructor that made it: "ref", "Hashtbl.create"... *)
  | Lazy_init

type use = { target : string; use_loc : Location.t }

type extern = {
  extern_name : string;  (* original dotted form, e.g. "Random.bool" *)
  extern_loc : Location.t;
  extern_sorted : bool;  (* some enclosing application re-sorts the result *)
}

type def = {
  id : string;
  def_path : string;
  def_line : int;
  in_functor : bool;
  mutability : mutability;
  mutable uses : use list;  (* resolved references, source order *)
  mutable externs : extern list;  (* unresolved dotted references *)
  mutable writes : use list;  (* targets are top-level defs being mutated *)
}

type site = {
  site_path : string;
  site_loc : Location.t;
  site_enclosing : string;  (* def the parallel call appears in *)
  site_primitive : string;  (* e.g. "Parallel.parallel_init" *)
  mutable site_roots : string list;  (* defs reachable from the worker closure *)
  mutable site_writes : use list;  (* writes lexically inside the closure args *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* sorted ids, the deterministic iteration order *)
  sites : site list;
}

let find t id = Hashtbl.find_opt t.defs id
let defs_in_order t = List.filter_map (Hashtbl.find_opt t.defs) t.order

(* ---------- small helpers ---------- *)

let unit_name_of_path path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

let contains_dot s = String.contains s '.'

let drop_first_segment s =
  match String.index_opt s '.' with
  | Some i -> Some (String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

let strip_stdlib s =
  let p = "Stdlib." in
  let lp = String.length p in
  if String.length s > lp && String.sub s 0 lp = p then
    String.sub s lp (String.length s - lp)
  else s

let rec pattern_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (q, { txt; _ }) -> txt :: pattern_vars q
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pattern_vars ps
  | Ppat_construct (_, Some (_, q))
  | Ppat_variant (_, Some q)
  | Ppat_constraint (q, _)
  | Ppat_lazy q
  | Ppat_open (_, q)
  | Ppat_exception q -> pattern_vars q
  | Ppat_or (a, _) -> pattern_vars a
  | Ppat_record (fields, _) -> List.concat_map (fun (_, q) -> pattern_vars q) fields
  | _ -> []

(* Top-level mutable-state constructors, for the domain-safety
   inventory. [Atomic.make] is deliberately absent: atomics are the
   sanctioned cross-domain primitive. *)
let mutable_makers =
  [
    "ref"; "Hashtbl.create"; "Array.make"; "Array.init"; "Array.create_float";
    "Bytes.create"; "Bytes.make"; "Buffer.create"; "Queue.create";
    "Stack.create";
  ]

let rec classify_rhs (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> classify_rhs e
  | Pexp_lazy _ -> Lazy_init
  | Pexp_record _ -> Mut "record"
  | Pexp_array _ -> Mut "array literal"
  | Pexp_apply _ -> (
    match Rule.head_ident e with
    | Some name ->
      let base = strip_stdlib name in
      if List.mem base mutable_makers then Mut base else Immutable
    | None -> Immutable)
  | _ -> Immutable

(* Mutation entry points: (module, function) -> which argument holds the
   structure being written. [-1] means "any identifier argument"
   (Array/Bytes.blit mutate their destination, which moves around). *)
let write_fns = [ ":="; "incr"; "decr" ]

let write_methods =
  [
    ("Hashtbl", [ "replace"; "add"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Array", [ "set"; "fill"; "unsafe_set"; "sort"; "fast_sort"; "stable_sort" ]);
    ("Bytes", [ "set"; "fill"; "unsafe_set" ]);
    ("Buffer", [ "add_string"; "add_char"; "add_bytes"; "add_buffer"; "add_subbytes"; "clear"; "reset" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
  ]

let is_write_head name =
  let name = strip_stdlib name in
  if List.mem name write_fns then true
  else
    match String.rindex_opt name '.' with
    | None -> false
    | Some i -> (
      let fn = String.sub name (i + 1) (String.length name - i - 1) in
      match Rule.module_path name with
      | Some m -> (
        match List.assoc_opt m write_methods with
        | Some fns -> List.mem fn fns
        | None -> name = "Array.blit" || name = "Bytes.blit")
      | None -> false)

let parallel_primitives =
  [ "parallel_for"; "parallel_init"; "range_for" ]

let parallel_site_name name =
  List.find_opt
    (fun p ->
      let q = "Parallel." ^ p in
      name = q || Rule.has_suffix name ~suffix:("." ^ q))
    parallel_primitives
  |> Option.map (fun p -> "Parallel." ^ p)

(* ---------- build environment ---------- *)

type local_info = { mutable l_uses : use list; mutable l_writes : use list }

type env = {
  config : Config.t;
  defs : (string, def) Hashtbl.t;
  module_prefixes : (string, unit) Hashtbl.t;
  aliases : (string, string) Hashtbl.t;  (* canonical prefix -> expansion *)
  mutable raw_aliases : (string * string * string list) list;
    (* (alias id, raw target, enclosing prefixes innermost-first) *)
  mutable all_sites : site list;
}

let longest_alias_prefix env name =
  let rec cuts i acc =
    match String.index_from_opt name i '.' with
    | Some j -> cuts (j + 1) (j :: acc)
    | None -> String.length name :: acc
  in
  (* positions, longest first *)
  let rec first_hit = function
    | [] -> None
    | cut :: rest -> (
      let p = String.sub name 0 cut in
      match Hashtbl.find_opt env.aliases p with
      | Some target -> Some (p, target)
      | None -> first_hit rest)
  in
  first_hit (cuts 0 [])

let alias_expand env name =
  let rec go name fuel =
    if fuel = 0 then name
    else
      match longest_alias_prefix env name with
      | Some (p, target) when target <> p ->
        let rest = String.sub name (String.length p) (String.length name - String.length p) in
        go (target ^ rest) (fuel - 1)
      | _ -> name
  in
  go name 8

(* Resolve a dotted name against the definition table: expand aliases,
   then drop leading segments (library wrappers, parent dirs) until a
   known definition matches. Bare (dot-free) names never match here —
   they only resolve through an explicit prefix or open. *)
let rec lookup env name =
  let name = alias_expand env name in
  if Hashtbl.mem env.defs name then Some name
  else
    match drop_first_segment name with
    | Some rest when contains_dot rest -> lookup env rest
    | _ -> None

let resolve env ~prefixes ~opens name =
  let candidates =
    List.map (fun p -> p ^ "." ^ name) prefixes
    @ List.map (fun o -> o ^ "." ^ name) opens
    @ [ name ]
  in
  List.find_map (lookup env) candidates

(* Like [lookup] but against module prefixes, for resolving [open]ed
   modules and alias targets. *)
let rec lookup_module env name =
  let name = alias_expand env name in
  if Hashtbl.mem env.module_prefixes name then Some name
  else
    match drop_first_segment name with
    | Some rest -> lookup_module env rest
    | None -> None

(* ---------- pass A: definitions, aliases, opens ---------- *)

let add_def env ~id ~path ~loc ~in_functor ~mutability =
  if not (Hashtbl.mem env.defs id) then
    Hashtbl.replace env.defs id
      {
        id;
        def_path = path;
        def_line = loc.Location.loc_start.Lexing.pos_lnum;
        in_functor;
        mutability;
        uses = [];
        externs = [];
        writes = [];
      }

let rec modexpr_head (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (Rule.longident_name txt)
  | Pmod_apply (f, _) -> modexpr_head f
  | Pmod_constraint (me, _) -> modexpr_head me
  | _ -> None

let value_binding_defs ~prefix ~counter vb =
  let vars = pattern_vars vb.Parsetree.pvb_pat in
  match vars with
  | [] ->
    incr counter;
    [ (Printf.sprintf "%s.__init%d" prefix !counter, Immutable) ]
  | vars -> List.map (fun v -> (prefix ^ "." ^ v, classify_rhs vb.pvb_expr)) vars

let rec collect_items env ~path ~prefix ~prefixes ~in_functor ~counter items =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            List.iter
              (fun (id, mutability) ->
                add_def env ~id ~path ~loc:vb.pvb_loc ~in_functor ~mutability)
              (value_binding_defs ~prefix ~counter vb))
          vbs
      | Pstr_eval (_, _) ->
        incr counter;
        add_def env
          ~id:(Printf.sprintf "%s.__init%d" prefix !counter)
          ~path ~loc:item.pstr_loc ~in_functor ~mutability:Immutable
      | Pstr_module mb -> collect_module env ~path ~prefix ~prefixes ~in_functor mb
      | Pstr_recmodule mbs ->
        List.iter (collect_module env ~path ~prefix ~prefixes ~in_functor) mbs
      | _ -> ())
    items

and collect_module env ~path ~prefix ~prefixes ~in_functor mb =
  match mb.Parsetree.pmb_name.txt with
  | None -> ()
  | Some name ->
    let self = prefix ^ "." ^ name in
    Hashtbl.replace env.module_prefixes self ();
    collect_modexpr env ~path ~self ~prefixes ~in_functor mb.pmb_expr

and collect_modexpr env ~path ~self ~prefixes ~in_functor (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items ->
    let counter = ref 0 in
    collect_items env ~path ~prefix:self ~prefixes:(self :: prefixes) ~in_functor
      ~counter items
  | Pmod_functor (_, body) ->
    collect_modexpr env ~path ~self ~prefixes ~in_functor:true body
  | Pmod_constraint (me, _) -> collect_modexpr env ~path ~self ~prefixes ~in_functor me
  | Pmod_ident { txt; _ } ->
    env.raw_aliases <- (self, Rule.longident_name txt, prefixes) :: env.raw_aliases
  | Pmod_apply (f, _) -> (
    (* [module App = F (M)]: App shares F's definitions by prefix
       rewriting. The argument side is not tracked (taint does not flow
       from actuals into the instantiation — documented approximation). *)
    match modexpr_head f with
    | Some raw -> env.raw_aliases <- (self, raw, prefixes) :: env.raw_aliases
    | None -> ())
  | Pmod_apply_unit f -> (
    match modexpr_head f with
    | Some raw -> env.raw_aliases <- (self, raw, prefixes) :: env.raw_aliases
    | None -> ())
  | Pmod_unpack _ | Pmod_extension _ -> ()

let collect_opens structure =
  let acc = ref [] in
  let default = Ast_iterator.default_iterator in
  let open_declaration it (od : Parsetree.open_declaration) =
    (match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } -> acc := Rule.longident_name txt :: !acc
    | _ -> ());
    default.Ast_iterator.open_declaration it od
  in
  let it = { default with Ast_iterator.open_declaration } in
  it.Ast_iterator.structure it structure;
  List.rev !acc

(* ---------- pass B: references, writes, parallel sites ---------- *)

let walk_binding env ~path ~prefixes ~opens ~defs body =
  if defs <> [] then begin
    let locals : (string, local_info) Hashtbl.t = Hashtbl.create 16 in
    let site_stack = ref [] in
    let ancestors = ref [] in
    let first = List.hd defs in
    let resolve name = resolve env ~prefixes ~opens name in
    let record_use target loc =
      let u = { target; use_loc = loc } in
      List.iter (fun d -> d.uses <- u :: d.uses) defs;
      List.iter (fun s -> s.site_roots <- target :: s.site_roots) !site_stack
    in
    let record_write target loc =
      let w = { target; use_loc = loc } in
      List.iter (fun d -> d.writes <- w :: d.writes) defs;
      List.iter (fun s -> s.site_writes <- w :: s.site_writes) !site_stack
    in
    let record_extern name loc =
      if contains_dot name then begin
        let e =
          {
            extern_name = name;
            extern_loc = loc;
            extern_sorted = Rule.laundered_by_sort ~ancestors:!ancestors;
          }
        in
        List.iter (fun d -> d.externs <- e :: d.externs) defs
      end
    in
    let splice_local name =
      match Hashtbl.find_opt locals name with
      | None -> false
      | Some li ->
        List.iter
          (fun s ->
            s.site_roots <-
              List.rev_append (List.rev_map (fun u -> u.target) li.l_uses) s.site_roots;
            s.site_writes <- li.l_writes @ s.site_writes)
          !site_stack;
        true
    in
    (* Writing through a local alias ([let t = Foo.table in
       Hashtbl.replace t ...]) only counts against RHS references that
       are themselves mutable top-level state: a local bound to [ref
       Group.one] or to a function's result owns fresh storage, and a
       [Domain.DLS.get] handle is domain-local by construction. *)
    let mutable_target id =
      match Hashtbl.find_opt env.defs id with
      | Some d -> d.mutability <> Immutable
      | None -> false
    in
    let bind_params pat =
      List.iter
        (fun v ->
          if not (Hashtbl.mem locals v) then
            Hashtbl.replace locals v { l_uses = []; l_writes = [] })
        (pattern_vars pat)
    in
    (* Which argument of a mutation entry point is the structure being
       written? Returns the identifier names to treat as write targets. *)
    let write_targets head (args : (Asttypes.arg_label * Parsetree.expression) list) =
      let head = strip_stdlib head in
      let unlabelled =
        List.filter_map
          (function Asttypes.Nolabel, a -> Some a | _ -> None)
          args
      in
      let pick es = List.filter_map Rule.ident_name es in
      if head = "Array.blit" || head = "Bytes.blit" || head = "Queue.transfer" then
        pick unlabelled
      else
        match unlabelled with a :: _ -> pick [ a ] | [] -> []
    in
    let handle (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
        let name = Rule.longident_name txt in
        if contains_dot name || not (splice_local name) then
          match resolve name with
          | Some id -> record_use id e.pexp_loc
          | None -> record_extern name e.pexp_loc)
      | Pexp_apply (fn, args) -> (
        match Rule.ident_name fn with
        | Some head when is_write_head head ->
          List.iter
            (fun target_name ->
              match Hashtbl.find_opt locals target_name with
              | Some li ->
                List.iter
                  (fun u ->
                    if mutable_target u.target then record_write u.target e.pexp_loc)
                  li.l_uses
              | None -> (
                match resolve target_name with
                | Some id -> record_write id e.pexp_loc
                | None -> ()))
            (write_targets head args)
        | _ -> ())
      | Pexp_setfield (lhs, _, _) -> (
        match Rule.ident_name lhs with
        | Some name -> (
          match Hashtbl.find_opt locals name with
          | Some li ->
            List.iter
              (fun u ->
                if mutable_target u.target then record_write u.target e.pexp_loc)
              li.l_uses
          | None -> (
            match resolve name with
            | Some id -> record_write id e.pexp_loc
            | None -> ()))
        | None -> ())
      | Pexp_fun (_, _, pat, _) -> bind_params pat
      | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        List.iter (fun (c : Parsetree.case) -> bind_params c.pc_lhs) cases
      | _ -> ()
    in
    let detect_site (e : Parsetree.expression) =
      if Config.in_paths path env.config.Config.worker_safe then None
      else
        match e.pexp_desc with
        | Pexp_apply (fn, _) -> (
          match Rule.ident_name fn with
          | Some name -> (
            match parallel_site_name name with
            | Some prim ->
              Some
                {
                  site_path = path;
                  site_loc = e.pexp_loc;
                  site_enclosing = first.id;
                  site_primitive = prim;
                  site_roots = [];
                  site_writes = [];
                }
            | None -> None)
          | None -> None)
        | _ -> None
    in
    let default = Ast_iterator.default_iterator in
    let rec take_new l stop = if l == stop then [] else
      match l with [] -> [] | x :: tl -> x :: take_new tl stop
    in
    let expr it (e : Parsetree.expression) =
      handle e;
      let site = detect_site e in
      (match site with Some s -> site_stack := s :: !site_stack | None -> ());
      ancestors := e :: !ancestors;
      (match e.pexp_desc with
      | Pexp_let (_, vbs, body) ->
        (* walk each binding's RHS, then credit the fresh uses/writes to
           the bound name so closures passed by name to Parallel.* can
           recover their reference set *)
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let u0 = first.uses and w0 = first.writes in
            it.Ast_iterator.expr it vb.pvb_expr;
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
              Hashtbl.replace locals txt
                {
                  l_uses = List.rev (take_new first.uses u0);
                  l_writes = List.rev (take_new first.writes w0);
                }
            | _ -> bind_params vb.pvb_pat)
          vbs;
        it.Ast_iterator.expr it body
      | _ -> default.Ast_iterator.expr it e);
      ancestors := List.tl !ancestors;
      match site with
      | Some s ->
        site_stack := List.tl !site_stack;
        env.all_sites <- s :: env.all_sites
      | None -> ()
    in
    let it = { default with Ast_iterator.expr } in
    it.Ast_iterator.expr it body
  end

let rec walk_items env ~path ~prefix ~prefixes ~opens ~counter items =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            let ids = List.map fst (value_binding_defs ~prefix ~counter vb) in
            let defs = List.filter_map (Hashtbl.find_opt env.defs) ids in
            walk_binding env ~path ~prefixes ~opens ~defs vb.pvb_expr)
          vbs
      | Pstr_eval (e, _) ->
        incr counter;
        let id = Printf.sprintf "%s.__init%d" prefix !counter in
        let defs = List.filter_map (Hashtbl.find_opt env.defs) [ id ] in
        walk_binding env ~path ~prefixes ~opens ~defs e
      | Pstr_module mb -> walk_module env ~path ~prefix ~prefixes ~opens mb
      | Pstr_recmodule mbs ->
        List.iter (walk_module env ~path ~prefix ~prefixes ~opens) mbs
      | _ -> ())
    items

and walk_module env ~path ~prefix ~prefixes ~opens mb =
  match mb.Parsetree.pmb_name.txt with
  | None -> ()
  | Some name ->
    walk_modexpr env ~path ~self:(prefix ^ "." ^ name) ~prefixes ~opens mb.pmb_expr

and walk_modexpr env ~path ~self ~prefixes ~opens (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items ->
    let counter = ref 0 in
    walk_items env ~path ~prefix:self ~prefixes:(self :: prefixes) ~opens ~counter items
  | Pmod_functor (_, body) -> walk_modexpr env ~path ~self ~prefixes ~opens body
  | Pmod_constraint (me, _) -> walk_modexpr env ~path ~self ~prefixes ~opens me
  | _ -> ()

(* ---------- build ---------- *)

let build config sources =
  let env =
    {
      config;
      defs = Hashtbl.create 512;
      module_prefixes = Hashtbl.create 64;
      aliases = Hashtbl.create 16;
      raw_aliases = [];
      all_sites = [];
    }
  in
  let sources =
    List.sort (fun (a, _) (b, _) -> compare a b) sources
    |> List.map (fun (path, structure) ->
           (path, unit_name_of_path path, structure, collect_opens structure))
  in
  (* pass A: definitions, module prefixes, raw aliases *)
  List.iter
    (fun (path, unit, structure, _) ->
      Hashtbl.replace env.module_prefixes unit ();
      let counter = ref 0 in
      collect_items env ~path ~prefix:unit ~prefixes:[ unit ] ~in_functor:false
        ~counter structure)
    sources;
  (* resolve aliases; two rounds so aliases of aliases settle *)
  let raw = List.rev env.raw_aliases in
  for _round = 1 to 2 do
    List.iter
      (fun (alias_id, raw_target, prefixes) ->
        let candidates =
          List.map (fun p -> p ^ "." ^ raw_target) prefixes @ [ raw_target ]
        in
        match List.find_map (lookup_module env) candidates with
        | Some target when target <> alias_id ->
          Hashtbl.replace env.aliases alias_id target
        | _ -> ())
      raw
  done;
  (* pass B: resolve opens per unit, then walk bodies *)
  List.iter
    (fun (path, unit, structure, raw_opens) ->
      let opens = List.filter_map (lookup_module env) raw_opens in
      let counter = ref 0 in
      walk_items env ~path ~prefix:unit ~prefixes:[ unit ] ~opens ~counter structure)
    sources;
  (* finalize: restore source order, dedup roots, expand empty root sets
     to the enclosing definition's references (closure came in as an
     opaque value — fall back to everything its definer can reach) *)
  Hashtbl.iter
    (fun _ d ->
      d.uses <- List.rev d.uses;
      d.externs <- List.rev d.externs;
      d.writes <- List.rev d.writes)
    env.defs;
  let sites =
    List.rev_map
      (fun s ->
        let roots =
          if s.site_roots <> [] then s.site_roots
          else
            match Hashtbl.find_opt env.defs s.site_enclosing with
            | Some d -> List.map (fun u -> u.target) d.uses
            | None -> []
        in
        s.site_roots <- List.sort_uniq compare roots;
        s)
      env.all_sites
    |> List.sort (fun a b ->
           compare
             (a.site_path, a.site_loc.Location.loc_start.Lexing.pos_lnum)
             (b.site_path, b.site_loc.Location.loc_start.Lexing.pos_lnum))
  in
  let order =
    Hashtbl.fold (fun id _ acc -> id :: acc) env.defs [] |> List.sort compare
  in
  { defs = env.defs; order; sites }

(* Reverse adjacency: target -> callers, deterministic bucket order. *)
let callers (t : t) =
  let rev : (string, (string * Location.t) list) Hashtbl.t =
    Hashtbl.create (Hashtbl.length t.defs)
  in
  List.iter
    (fun d ->
      List.iter
        (fun u ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt rev u.target) in
          Hashtbl.replace rev u.target ((d.id, u.use_loc) :: existing))
        d.uses)
    (defs_in_order t);
  Hashtbl.iter (fun k v -> Hashtbl.replace rev k (List.rev v)) rev;
  rev
