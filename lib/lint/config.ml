type t = {
  disabled : string list;
  allows : (string * string) list;
  scopes : (string * string list) list;
  sensitive : string list;
  sinks : string list;
  launder : string list;
  crypto_modules : string list;
  escapes : string list;
  worker_safe : string list;
  det_exempt : string list;
}

let default =
  {
    disabled = [];
    allows = [];
    scopes =
      [
        ("determinism", [ "lib/privcount"; "lib/psc"; "lib/crypto"; "lib/dp" ]);
        ("polycompare", [ "lib/crypto" ]);
        ("hygiene", [ "lib/"; "bin/" ]);
      ];
    sensitive =
      [
        (* PrivCount raw (pre-unblinding) per-counter sums *)
        "Dc.report";
        "Sk.report";
        (* PSC simulator-side ground truth: exact pre-noise cardinalities *)
        "Protocol.true_union_size";
      ];
    sinks = [ "lib/obs"; "lib/core/report"; "bin/" ];
    launder = [ "lib/dp" ];
    crypto_modules =
      [
        "Group"; "Elgamal"; "Sigma"; "Bit_proof"; "Schnorr_sig";
        "Shuffle"; "Secret_sharing"; "Hmac"; "Sha256"; "Drbg";
      ];
    escapes = [ "_to_int"; "_to_string"; "_of_int"; "length" ];
    (* lib/parallel IS the synchronization layer, exempt from the
       domain-safety worker rules. lib/obs is not: pool workers record
       no telemetry. *)
    worker_safe = [ "lib/parallel" ];
    (* lib/obs wall-clock reads are by design (phase timings are zeroed
       in canonical ledgers); scoped code may reach it freely. *)
    det_exempt = [ "lib/obs" ];
  }

(* --- string helpers (kept local: the lint library has no deps) --- *)

let normalize_path p = String.map (fun c -> if c = '\\' then '/' else c) p

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= n - m do
      if String.sub s !i m = sub then found := true else incr i
    done;
    !found
  end

let in_paths path frags =
  let path = normalize_path path in
  List.exists (fun frag -> contains_sub path (normalize_path frag)) frags

let rule_matches name ~rule_id ~family =
  name = "all" || name = rule_id || name = family

let scope_of t family =
  match List.assoc_opt family t.scopes with Some l -> l | None -> []

let add_scope t family path =
  let existing = scope_of t family in
  let scopes =
    (family, existing @ [ path ]) :: List.remove_assoc family t.scopes
  in
  { t with scopes }

(* --- directive parsing --- *)

(* The families that read [scope_of]; a scope for any other family
   would be accepted and silently ignored. *)
let scoped_families = [ "determinism"; "polycompare"; "hygiene" ]

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_line t ~source ~lineno line =
  let err fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "%s:%d: %s" source lineno m)) fmt
  in
  match split_words (strip_comment line) with
  | [] -> Ok t
  | [ "disable"; rule ] -> Ok { t with disabled = t.disabled @ [ rule ] }
  | [ "allow"; rule; path ] -> Ok { t with allows = t.allows @ [ (rule, path) ] }
  | [ "scope"; family; path ] ->
    if List.mem family scoped_families then Ok (add_scope t family path)
    else
      err "scope %S: only %s take a scope" family
        (String.concat ", " scoped_families)
  | [ "sensitive"; ident ] -> Ok { t with sensitive = t.sensitive @ [ ident ] }
  | [ "sink"; path ] -> Ok { t with sinks = t.sinks @ [ path ] }
  | [ "launder"; path ] -> Ok { t with launder = t.launder @ [ path ] }
  | [ "crypto-module"; name ] ->
    Ok { t with crypto_modules = t.crypto_modules @ [ name ] }
  | [ "escape"; suffix ] -> Ok { t with escapes = t.escapes @ [ suffix ] }
  | [ "worker-safe"; path ] ->
    Ok { t with worker_safe = t.worker_safe @ [ path ] }
  | [ "det-exempt"; path ] ->
    Ok { t with det_exempt = t.det_exempt @ [ path ] }
  | directive :: _
    when List.mem directive
           [ "disable"; "allow"; "scope"; "sensitive"; "sink"; "launder";
             "crypto-module"; "escape"; "worker-safe"; "det-exempt" ] ->
    err "directive %S: wrong number of arguments" directive
  | directive :: _ -> err "unknown directive %S" directive

let of_string ?(source = "<string>") text =
  let lines = String.split_on_char '\n' text in
  let rec go t lineno = function
    | [] -> Ok t
    | line :: rest -> (
      match parse_line t ~source ~lineno line with
      | Ok t -> go t (lineno + 1) rest
      | Error _ as e -> e)
  in
  go default 1 lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string ~source:path text
  | exception Sys_error msg -> Error msg
