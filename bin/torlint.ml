(* torlint — static analysis for the measurement stack.

     torlint                      # lint lib/ and bin/ under the cwd
     torlint --root DIR           # ... under DIR
     torlint lib/privcount bin    # lint specific files/directories
     torlint --rules              # list the rule families
     torlint --format sarif       # SARIF 2.1.0 output

   Exit codes: 0 clean, 1 findings, 2 config error, 124 command-line
   usage error (cmdliner's) — suitable as a failing CI check. Findings
   are waived per site with a "torlint: allow RULE — why" comment or
   repo-wide in torlint.config; an allow comment that waives nothing is
   itself a finding. *)

open Cmdliner

let root_arg =
  let doc = "Repository root: the default lint targets ($(b,lib/), $(b,bin/)) and \
             $(b,torlint.config) are resolved against it." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let config_arg =
  let doc = "Config file (default: $(b,ROOT/torlint.config) when it exists)." in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)

let rules_arg =
  let doc = "List the rule families and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let quiet_arg =
  let doc = "Print only the findings, no summary line." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let format_arg =
  let doc = "Output format: $(b,text) (default) or $(b,sarif)." in
  let fmt = Arg.enum [ ("text", `Text); ("sarif", `Sarif) ] in
  Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FMT" ~doc)

let paths_arg =
  let doc = "Files or directories to lint instead of ROOT's lib/ and bin/." in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

let list_rules () =
  Printf.printf "per-file rules:\n";
  List.iter
    (fun (r : Lint.Rule.t) -> Printf.printf "  %-14s %s\n" r.Lint.Rule.id r.Lint.Rule.doc)
    Lint.Rules.all;
  Printf.printf "call-graph rules (whole program):\n";
  List.iter
    (fun (g : Lint.Global.t) -> Printf.printf "  %-14s %s\n" g.Lint.Global.id g.Lint.Global.doc)
    Lint.Rules.globals

let load_config ~root ~config =
  match config with
  | Some path -> Lint.Config.load path
  | None ->
    let path = Filename.concat root "torlint.config" in
    if Sys.file_exists path then Lint.Config.load path else Ok Lint.Config.default

let run root config rules quiet format paths =
  if rules then begin
    list_rules ();
    0
  end
  else
    match load_config ~root ~config with
    | Error msg ->
      Printf.eprintf "torlint: %s\n" msg;
      2
    | Ok cfg ->
      let targets = if paths = [] then [ root ] else paths in
      let diags = Lint.Engine.lint_paths cfg targets in
      (match format with
      | `Text ->
        List.iter (fun d -> print_endline (Lint.Diagnostic.to_string d)) diags;
        if not quiet then
          Printf.printf "torlint: %d finding%s\n" (List.length diags)
            (if List.length diags = 1 then "" else "s")
      | `Sarif ->
        let rules =
          List.map (fun (r : Lint.Rule.t) -> (r.Lint.Rule.id, r.Lint.Rule.doc)) Lint.Rules.all
          @ List.map
              (fun (g : Lint.Global.t) -> (g.Lint.Global.id, g.Lint.Global.doc))
              Lint.Rules.globals
        in
        print_endline (Lint.Sarif.sarif ~rules (Lint.Sarif.with_fingerprints diags)));
      if diags = [] then 0 else 1

let cmd =
  let info =
    Cmd.info "torlint"
      ~doc:"Determinism and privacy-flow static analysis for the measurement stack"
  in
  Cmd.v info
    Term.(const run $ root_arg $ config_arg $ rules_arg $ quiet_arg $ format_arg
          $ paths_arg)

let () = exit (Cmd.eval' cmd)
