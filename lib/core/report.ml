(* Uniform reporting for the reproduction harness: every experiment
   produces rows of (statistic, paper value, our measured value, shape
   verdict). Absolute totals are simulation-scale; the comparison
   targets are fractions, factors, orderings and CI behaviour. *)

type row = {
  label : string;
  paper : string;     (* the value the paper reports *)
  measured : string;  (* what our pipeline measured/inferred *)
  truth : string;     (* simulator ground truth, when meaningful *)
  ok : bool option;   (* shape verdict, when checkable *)
}

type t = {
  id : string;     (* "Table 4", "Figure 1", ... *)
  title : string;
  scale_note : string;
  rows : row list;
}

let row ?(truth = "") ?ok ~label ~paper ~measured () = { label; paper; measured; truth; ok }

let verdict = function None -> " " | Some true -> "ok" | Some false -> "XX"

let print t =
  Printf.printf "\n== %s: %s ==\n" t.id t.title;
  if t.scale_note <> "" then Printf.printf "   (%s)\n" t.scale_note;
  let w_label = List.fold_left (fun acc r -> max acc (String.length r.label)) 9 t.rows in
  let w_paper = List.fold_left (fun acc r -> max acc (String.length r.paper)) 5 t.rows in
  let w_meas = List.fold_left (fun acc r -> max acc (String.length r.measured)) 8 t.rows in
  let w_truth = List.fold_left (fun acc r -> max acc (String.length r.truth)) 5 t.rows in
  Printf.printf "   %-*s | %-*s | %-*s | %-*s | %s\n" w_label "statistic" w_paper "paper"
    w_meas "measured" w_truth "truth" "ok";
  Printf.printf "   %s\n" (String.make (w_label + w_paper + w_meas + w_truth + 16) '-');
  List.iter
    (fun r ->
      Printf.printf "   %-*s | %-*s | %-*s | %-*s | %s\n" w_label r.label w_paper r.paper
        w_meas r.measured w_truth r.truth (verdict r.ok))
    t.rows

(* machine-readable export for downstream analysis/plotting *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let b = Buffer.create 512 in
  Buffer.add_string b "experiment,statistic,paper,measured,truth,ok\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (String.concat ","
           [
             csv_escape t.id; csv_escape r.label; csv_escape r.paper; csv_escape r.measured;
             csv_escape r.truth;
             (match r.ok with None -> "" | Some ok -> string_of_bool ok);
           ]);
      Buffer.add_char b '\n')
    t.rows;
  Buffer.contents b

let all_ok t =
  List.for_all (fun r -> match r.ok with Some false -> false | _ -> true) t.rows

(* formatting helpers shared by the experiments *)

let fmt_count v =
  if Float.abs v >= 1e9 then Printf.sprintf "%.2fB" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e4 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let fmt_ci (ci : Stats.Ci.t) = Printf.sprintf "[%s; %s]" (fmt_count ci.Stats.Ci.lo) (fmt_count ci.Stats.Ci.hi)

let fmt_count_ci v ci = Printf.sprintf "%s %s" (fmt_count v) (fmt_ci ci)

let within ~tolerance ~expected actual =
  if expected = 0.0 then Float.abs actual <= tolerance
  else Float.abs (actual -. expected) /. Float.abs expected <= tolerance
