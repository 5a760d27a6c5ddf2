(* Compare the phase timings of two run ledgers.

     trace-diff BASE.jsonl NEW.jsonl

   Reads the Phase events out of two ledger files written with
   --ledger, aggregates wall time per phase name (phases like
   "experiment.fig2" appear once, "privcount.tally" may repeat), and
   prints a base/new/speedup table. Exit code is 0 once both ledgers
   are read — the CI step that runs this is informational, not
   a gate (machine-to-machine timing noise would make a hard threshold
   flaky). *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> text
  | exception Sys_error e -> fail "trace-diff: %s" e

(* phase name -> (total wall seconds, total allocated bytes, count),
   in first-appearance order. *)
let phases_of path =
  match Obs.Ledger.of_jsonl (read_file path) with
  | Error msg -> fail "trace-diff: %s: %s" path msg
  | Ok events ->
    let order = ref [] and totals = Hashtbl.create 32 in
    List.iter
      (fun ev ->
        match ev with
        | Obs.Ledger.Phase { name; wall_s; alloc_bytes; _ } ->
          (match Hashtbl.find_opt totals name with
          | None ->
            order := name :: !order;
            Hashtbl.replace totals name (wall_s, alloc_bytes, 1)
          | Some (w, a, n) -> Hashtbl.replace totals name (w +. wall_s, a +. alloc_bytes, n + 1))
        | _ -> ())
      events;
    List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let () =
  let base_path, new_path =
    match Sys.argv with
    | [| _; b; n |] -> (b, n)
    | _ -> fail "usage: trace-diff BASE.jsonl NEW.jsonl"
  in
  let base = phases_of base_path and next = phases_of new_path in
  if base = [] then fail "trace-diff: no phase events in %s" base_path;
  if next = [] then fail "trace-diff: no phase events in %s" new_path;
  Printf.printf "%-34s %12s %12s %9s %12s\n" "phase" "base ms" "new ms" "speedup" "alloc ratio";
  Printf.printf "%s\n" (String.make 82 '-');
  let missing_new = ref [] in
  List.iter
    (fun (name, (base_w, base_a, _)) ->
      match List.assoc_opt name next with
      | None -> missing_new := name :: !missing_new
      | Some (new_w, new_a, _) ->
        let speedup = if new_w > 0.0 then base_w /. new_w else infinity in
        let alloc_ratio = if base_a > 0.0 then new_a /. base_a else 1.0 in
        Printf.printf "%-34s %12.1f %12.1f %8.2fx %11.2fx%s\n" name (1e3 *. base_w)
          (1e3 *. new_w) speedup alloc_ratio
          (if speedup >= 1.10 then "  faster" else if speedup <= 0.90 then "  SLOWER" else ""))
    base;
  let only_new = List.filter (fun (name, _) -> not (List.mem_assoc name base)) next in
  List.iter (fun name -> Printf.printf "%-34s only in %s\n" name base_path) (List.rev !missing_new);
  List.iter (fun (name, _) -> Printf.printf "%-34s only in %s\n" name new_path) only_new
