type ctx = {
  config : Config.t;
  path : string;
  emit : Diagnostic.t -> unit;
}

type t = {
  id : string;
  doc : string;
  applies : Config.t -> path:string -> bool;
  check : ctx -> Parsetree.structure -> unit;
}

let emit ctx ~rule_id ~severity ~message loc =
  ctx.emit (Diagnostic.v ~path:ctx.path ~rule_id ~severity ~message loc)

(* Total version of [Longident.flatten]: module applications keep only
   the applied side. *)
let rec flatten_longident = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten_longident l @ [ s ]
  | Longident.Lapply (_, l) -> flatten_longident l

let longident_name l = String.concat "." (flatten_longident l)

let ident_name (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (longident_name txt)
  | _ -> None

let rec head_ident (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> Some (longident_name txt)
  | Parsetree.Pexp_apply (fn, _) -> head_ident fn
  | _ -> None

let module_path name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i -> (
    let prefix = String.sub name 0 i in
    match String.rindex_opt prefix '.' with
    | None -> Some prefix
    | Some j -> Some (String.sub prefix (j + 1) (String.length prefix - j - 1)))

let has_suffix s ~suffix =
  let n = String.length s and m = String.length suffix in
  n >= m && String.sub s (n - m) m = suffix

let iter_expressions structure ~f =
  let stack = ref [] in
  let default = Ast_iterator.default_iterator in
  let expr it e =
    f ~ancestors:!stack e;
    stack := e :: !stack;
    default.Ast_iterator.expr it e;
    stack := List.tl !stack
  in
  let it = { default with Ast_iterator.expr } in
  it.Ast_iterator.structure it structure
