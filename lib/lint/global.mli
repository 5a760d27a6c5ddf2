(** Whole-program rules: run once over the {!Callgraph} built from
    every parsed source, after the per-file {!Rule}s. *)

type ctx = {
  config : Config.t;
  graph : Callgraph.t;
  emit : Diagnostic.t -> unit;
  waived : Diagnostic.t -> bool;
      (** would this diagnostic be suppressed at its site? Used to
          honor allow comments on taint seeds; marks matches as used. *)
}

type t = {
  id : string;  (** family name, e.g. ["domainsafety"] *)
  doc : string;  (** one-line description for [torlint --rules] *)
  check : ctx -> unit;
}

val emit :
  ctx -> path:string -> rule_id:string -> severity:Diagnostic.severity ->
  message:string -> Location.t -> unit

val file_of : Location.t -> string
(** The source path a location points into (the engine parses each
    file with its path as the position file name). *)

val pp_chain : string list -> string
(** Render a witness chain as ["a -> b -> c"]. *)
