(** Cross-module call graph over parsed sources.

    Nodes are top-level definitions named by a canonical id qualified
    by library directory: [f] at the top of [lib/privcount/dc.ml] is
    ["Privcount.Dc.f"], a nested [module Segment] member in
    [lib/trace/evtrace.ml] is ["Trace.Evtrace.Segment.encode"], and
    each side-effecting [let () = ...] gets a synthetic
    ["Lib.Unit.__initN"] node; same-named units in two libraries are
    two nodes. A reference resolves in its enclosing modules, its opens,
    then its own library, then as written; one written through a dune
    wrapper named unlike its directory (["Tormeasure.Registry.all"])
    drops leading segments until it names exactly one definition up to
    the qualifier. [module A = B] aliases and functor applications are
    expanded by prefix rewriting.

    Every identifier reference inside a body is an edge — called,
    partially applied, stored, or passed along — so reachability over
    the graph over-approximates data and control flow, which is the
    direction the transitive rules need. Calls through record fields
    and first-class modules produce no edge (the escape is recorded
    where the closure value is mentioned), and functor bodies are
    analyzed once against their formal parameters; see DESIGN.md §7b
    for the full list of approximations. *)

type mutability =
  | Immutable
  | Mut of string  (** the constructor that made it: ["ref"], ["Hashtbl.create"]... *)
  | Lazy_init

type use = { target : string; use_loc : Location.t }

type extern = {
  extern_name : string;  (** original dotted form, e.g. ["Random.bool"] *)
  extern_loc : Location.t;
  extern_sorted : bool;  (** some enclosing application re-sorts the result *)
}

type def = {
  id : string;
  def_path : string;
  def_line : int;
  in_functor : bool;
  mutability : mutability;
  mutable uses : use list;  (** resolved references, source order *)
  mutable externs : extern list;  (** unresolved dotted references *)
  mutable writes : use list;  (** targets are top-level defs being mutated *)
}

type site = {
  site_path : string;
  site_loc : Location.t;
  site_enclosing : string;  (** def the parallel call appears in *)
  site_primitive : string;  (** e.g. ["Parallel.parallel_init"] *)
  mutable site_roots : string list;
      (** defs referenced by the worker closure (or, when the closure is
          an opaque value, by the enclosing definition) *)
  mutable site_writes : use list;  (** writes lexically inside the closure *)
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (** sorted ids: the deterministic iteration order *)
  sites : site list;
}

val build : Config.t -> (string * Parsetree.structure) list -> t
(** [build config sources] constructs the graph from [(path, ast)]
    pairs. [config] supplies [worker_safe] paths, inside which
    [Parallel.*] calls are not collected as sites. Deterministic:
    sources are sorted by path, adjacency lists keep source order. *)

val find : t -> string -> def option
val defs_in_order : t -> def list

val callers : t -> (string, (string * Location.t) list) Hashtbl.t
(** Reverse adjacency: target id -> [(caller id, use site)] in
    deterministic order. The use site is where the caller mentions the
    target. *)
