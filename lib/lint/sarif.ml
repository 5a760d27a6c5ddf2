(* Machine-readable torlint output: a minimal SARIF 2.1.0 log whose
   results carry stable fingerprints ([partialFingerprints]), so a
   code-scanning viewer tracks a finding across unrelated edits.

   Fingerprints hash (path, rule id, message, occurrence index) — not
   line/column — so findings survive unrelated edits that shift code
   around. Rule messages must therefore never embed positions; they
   embed names and call chains, which change exactly when the finding
   itself changes. The occurrence index disambiguates identical
   findings in one file (the N-th identical (rule, message) pair keeps
   fingerprint N).

   Documents are built as [Json.t] values and written by [Json]. *)

(* ---------- fingerprints ---------- *)

let fingerprint ~occurrence (d : Diagnostic.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ d.Diagnostic.path; d.rule_id; d.message; string_of_int occurrence ]))

let with_fingerprints diags =
  let seen : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun (d : Diagnostic.t) ->
      let key = d.Diagnostic.path ^ "|" ^ d.rule_id ^ "|" ^ d.message in
      let occurrence = Option.value ~default:0 (Hashtbl.find_opt seen key) in
      Hashtbl.replace seen key (occurrence + 1);
      (d, fingerprint ~occurrence d))
    diags

(* ---------- the SARIF document ---------- *)

let severity_level = function
  | Diagnostic.Error -> "error"
  | Diagnostic.Warning -> "warning"

let sarif ~rules pairs =
  let open Json in
  let rule (id, doc) = Obj [ ("id", Str id); ("shortDescription", Obj [ ("text", Str doc) ]) ] in
  let result ((d : Diagnostic.t), fp) =
    let region = Obj [ ("startLine", int d.line); ("startColumn", int (d.col + 1)) ] in
    let location =
      Obj
        [
          ( "physicalLocation",
            Obj [ ("artifactLocation", Obj [ ("uri", Str d.Diagnostic.path) ]); ("region", region) ]
          );
        ]
    in
    Obj
      [
        ("ruleId", Str d.rule_id); ("level", Str (severity_level d.severity));
        ("message", Obj [ ("text", Str d.message) ]); ("locations", Arr [ location ]);
        ("partialFingerprints", Obj [ ("torlint/v1", Str fp) ]);
      ]
  in
  let driver =
    Obj
      [
        ("name", Str "torlint"); ("informationUri", Str "https://example.invalid/torlint");
        ("rules", Arr (List.map rule rules));
      ]
  in
  let run =
    Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Arr (List.map result pairs)) ]
  in
  to_string
    (Obj
       [
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ("runs", Arr [ run ]);
       ])
  ^ "\n"
