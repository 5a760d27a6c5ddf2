type entry = {
  line : int;
  rules : string list;  (* [] means "allow everything here" *)
  mutable used : bool;
}

type t = entry list

(* The marker must be anchored to a comment opener so that prose or
   string literals that merely mention the phrase (documentation, rule
   messages) are not mistaken for suppressions. Assembled from two
   pieces so this very line cannot match itself when torlint lints its
   own sources. *)
let marker = "(*" ^ " torlint: allow"

(* Rule tokens are [a-zA-Z0-9_/-]+; the first token that doesn't fit
   (an em-dash, "--", free prose...) ends the rule list and starts the
   justification. *)
let is_rule_token tok =
  tok <> ""
  && (match tok.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '-' -> true
         | _ -> false)
       tok

let find_from s from sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i > n - m then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go from

(* The rule tokens after the marker, up to the comment terminator or
   the end of the line. *)
let rules_after rest =
  let rest = match find_from rest 0 "*)" with Some j -> String.sub rest 0 j | None -> rest in
  let words =
    String.split_on_char ' ' rest
    |> List.concat_map (String.split_on_char ',')
    |> List.filter (fun w -> w <> "")
  in
  let rec take = function
    | tok :: rest when is_rule_token tok -> tok :: take rest
    | _ -> []
  in
  take words

(* A lexical walk: string literals ("..." with escapes, {id|...|id})
   and character literals are stepped over whole, in code and in
   comments alike (as the OCaml lexer does), so a marker inside a
   string never counts. *)
let scan source =
  let n = String.length source in
  let entries = ref [] and line = ref 1 and counted = ref 0 in
  let line_at pos =
    for k = !counted to pos - 1 do
      if source.[k] = '\n' then incr line
    done;
    counted := pos;
    !line
  in
  (* index after the literal opening at [i], or [i + 1] when none does *)
  let skip i =
    match source.[i] with
    | '"' ->
      let j = ref (i + 1) in
      while !j < n && source.[!j] <> '"' do
        if source.[!j] = '\\' then incr j;
        incr j
      done;
      !j + 1
    | '{' -> (
      let j = ref (i + 1) in
      while !j < n && (match source.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do
        incr j
      done;
      if !j >= n || source.[!j] <> '|' then i + 1
      else
        let close = "|" ^ String.sub source (i + 1) (!j - i - 1) ^ "}" in
        match find_from source (!j + 1) close with
        | Some k -> k + String.length close
        | None -> n)
    | '\'' when i + 2 < n && source.[i + 1] <> '\\' && source.[i + 2] = '\'' -> i + 3
    | '\'' when i + 1 < n && source.[i + 1] = '\\' -> (
      match String.index_from_opt source (min n (i + 3)) '\'' with
      | Some k -> k + 1
      | None -> n)
    | _ -> i + 1
  in
  let i = ref 0 in
  while !i < n do
    let from = !i + String.length marker in
    if source.[!i] = '(' && from <= n && String.sub source !i (String.length marker) = marker
    then begin
      let eol = match String.index_from_opt source from '\n' with Some e -> e | None -> n in
      entries :=
        { line = line_at !i; rules = rules_after (String.sub source from (eol - from)); used = false }
        :: !entries;
      i := from
    end
    else i := skip !i
  done;
  List.rev !entries

let allows t ~line ~rule_id ~family =
  (* Check every entry (no early exit) so that overlapping allows are
     all credited as used when they match. *)
  List.fold_left
    (fun acc e ->
      let hit =
        line >= e.line
        && line <= e.line + 2
        && (e.rules = []
           || List.exists (fun r -> Config.rule_matches r ~rule_id ~family) e.rules)
      in
      if hit then e.used <- true;
      acc || hit)
    false t

let stale t = List.filter (fun e -> not e.used) t
