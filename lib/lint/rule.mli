(** The rule framework: what a torlint rule is, plus the small AST
    toolkit every rule shares (longident flattening, application heads,
    and an expression iterator that tracks ancestors). *)

type ctx = {
  config : Config.t;
  path : string;  (** normalised, as matched against scopes/sinks *)
  emit : Diagnostic.t -> unit;
}

type t = {
  id : string;  (** the family name, e.g. ["determinism"] *)
  doc : string;  (** one-line description for [torlint --rules] *)
  applies : Config.t -> path:string -> bool;
  check : ctx -> Parsetree.structure -> unit;
}

val emit :
  ctx -> rule_id:string -> severity:Diagnostic.severity -> message:string ->
  Location.t -> unit

val longident_name : Longident.t -> string
(** Dotted form, e.g. ["Hashtbl.fold"]. *)

val ident_name : Parsetree.expression -> string option
(** [Some "M.f"] when the expression is an identifier. *)

val head_ident : Parsetree.expression -> string option
(** The identifier at the head of an application chain ([f] in
    [f a b]), or of the expression itself. *)

val module_path : string -> string option
(** ["Group.elt_to_int"] -> [Some "Group"]; [None] for unqualified
    names. Only the innermost module matters ([Crypto.Group.mul] ->
    [Some "Group"]). *)

val has_suffix : string -> suffix:string -> bool

val laundered_by_sort : ancestors:Parsetree.expression list -> bool
(** Does some enclosing application (or one of its arguments) re-sort
    the result? Shared by the per-file determinism rule and the call
    graph's extern classification. *)

val iter_expressions :
  Parsetree.structure ->
  f:(ancestors:Parsetree.expression list -> Parsetree.expression -> unit) ->
  unit
(** Visit every expression; [ancestors] is innermost-first. *)
