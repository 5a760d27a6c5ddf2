(* The torlint engine, two-phase since the interprocedural rework:

   1. parse every source (one [parse/error] diagnostic per broken
      file), run the per-file rules on each structure;
   2. build the whole-program call graph from all parsed structures at
      once and run the global rules (privflow v2, determinism v2,
      domain-safety) over it.

   Findings then pass through the waiver filter (in-source allow
   comments first — so they are credited as used — then config
   allowlist and disables), and allow comments that waived nothing
   become [suppress/stale-allow] diagnostics. Stale-allow findings
   deliberately bypass in-source suppression: a bare allow must not
   waive its own staleness. *)

let parse ~path source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception Syntaxerr.Error err ->
    Error (Syntaxerr.location_of_error err, "syntax error")
  | exception Lexer.Error (_, loc) -> Error (loc, "lexer error")

let rule_disabled config id =
  List.exists
    (fun d -> Config.rule_matches d ~rule_id:id ~family:id)
    config.Config.disabled

let config_waived config (d : Diagnostic.t) =
  let family = Diagnostic.family d in
  let rule_id = d.Diagnostic.rule_id in
  List.exists
    (fun name -> Config.rule_matches name ~rule_id ~family)
    config.Config.disabled
  || List.exists
       (fun (name, frag) ->
         Config.rule_matches name ~rule_id ~family
         && Config.in_paths d.Diagnostic.path [ frag ])
       config.Config.allows

let diag_waived config suppressions (d : Diagnostic.t) =
  (* evaluate the in-source comments first and unconditionally, so a
     matching allow is marked used even when the config also covers it *)
  let by_comment =
    Suppress.allows suppressions ~line:d.Diagnostic.line
      ~rule_id:d.Diagnostic.rule_id ~family:(Diagnostic.family d)
  in
  by_comment || config_waived config d

type loaded = {
  l_path : string;
  l_supp : Suppress.t;
  l_ast : Parsetree.structure option;
}

let lint_sources ?(strict_allows = false) config sources =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let loaded =
    List.map
      (fun (path, source) ->
        let l_supp = Suppress.scan source in
        match parse ~path source with
        | Ok ast -> { l_path = path; l_supp; l_ast = Some ast }
        | Error (loc, msg) ->
          emit
            (Diagnostic.v ~path ~rule_id:"parse/error" ~severity:Diagnostic.Error
               ~message:msg loc);
          { l_path = path; l_supp; l_ast = None })
      sources
  in
  (* phase 1: per-file rules *)
  List.iter
    (fun l ->
      match l.l_ast with
      | None -> ()
      | Some ast ->
        let ctx = { Rule.config; path = l.l_path; emit } in
        List.iter
          (fun (rule : Rule.t) ->
            if
              (not (rule_disabled config rule.Rule.id))
              && rule.Rule.applies config ~path:l.l_path
            then rule.Rule.check ctx ast)
          Rules.all)
    loaded;
  (* phase 2: whole-program rules over the call graph *)
  let supp_of : (string, Suppress.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace supp_of l.l_path l.l_supp) loaded;
  let waived (d : Diagnostic.t) =
    let supp =
      Option.value ~default:[] (Hashtbl.find_opt supp_of d.Diagnostic.path)
    in
    diag_waived config supp d
  in
  let parsed =
    List.filter_map (fun l -> Option.map (fun a -> (l.l_path, a)) l.l_ast) loaded
  in
  let graph = Callgraph.build config parsed in
  let gctx = { Global.config; graph; emit; waived } in
  List.iter
    (fun (grule : Global.t) ->
      if not (rule_disabled config grule.Global.id) then grule.Global.check gctx)
    Rules.globals;
  (* waiver filter; runs Suppress.allows on every finding, which is what
     marks the comments as used *)
  let kept = List.filter (fun d -> not (waived d)) !diags in
  (* stale allow comments *)
  let stale =
    List.concat_map
      (fun l ->
        Suppress.stale l.l_supp
        |> List.map (fun (e : Suppress.entry) ->
               let rules =
                 match e.Suppress.rules with
                 | [] -> "(all)"
                 | rs -> String.concat ", " rs
               in
               {
                 Diagnostic.path = l.l_path;
                 line = e.Suppress.line;
                 col = 0;
                 rule_id = "suppress/stale-allow";
                 severity =
                   (if strict_allows then Diagnostic.Error else Diagnostic.Warning);
                 message =
                   Printf.sprintf
                     "allow comment for %s matched no diagnostic this run; \
                      delete it or fix its rule list"
                     rules;
               }))
      loaded
    |> List.filter (fun d -> not (config_waived config d))
  in
  List.sort_uniq Diagnostic.compare (kept @ stale)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> Ok source
  | exception Sys_error msg -> Error msg

(* --- directory walking --- *)

let is_dir path = Sys.file_exists path && Sys.is_directory path

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun entry ->
         if entry = "_build" || (entry <> "" && entry.[0] = '.') then []
         else
           let path = Filename.concat dir entry in
           if Sys.is_directory path then files_under path
           else if Filename.check_suffix entry ".ml" then [ path ]
           else [])

let strip_dot_slash p =
  if String.length p > 2 && String.sub p 0 2 = "./" then
    String.sub p 2 (String.length p - 2)
  else p

(* Every [.ml] file under [root/lib] and [root/bin] (or [root] itself
   when it is a single directory of sources), in sorted order, skipping
   [_build] and dot-directories. *)
let walk root =
  let sub name = Filename.concat root name in
  let roots =
    List.filter is_dir [ sub "lib"; sub "bin" ]
  in
  let roots = if roots = [] then [ root ] else roots in
  List.concat_map files_under roots |> List.map strip_dot_slash |> List.sort String.compare

let lint_paths ?strict_allows config paths =
  let files =
    paths
    |> List.concat_map (fun p -> if is_dir p then walk p else [ strip_dot_slash p ])
    |> List.sort_uniq String.compare
  in
  let unreadable = ref [] in
  let sources =
    List.filter_map
      (fun path ->
        match read_file path with
        | Ok source -> Some (path, source)
        | Error msg ->
          unreadable :=
            {
              Diagnostic.path;
              line = 1;
              col = 0;
              rule_id = "parse/unreadable";
              severity = Diagnostic.Error;
              message = msg;
            }
            :: !unreadable;
          None)
      files
  in
  List.sort_uniq Diagnostic.compare
    (!unreadable @ lint_sources ?strict_allows config sources)
