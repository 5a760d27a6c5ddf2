(* Append-only run ledger: typed audit events proving what a
   measurement run did — privacy-budget grants and draws with running
   cumulative spend, zero-knowledge proof verification outcomes, and
   phase boundaries with wall-clock and Gc-allocation deltas. The
   ledger is the operator-facing evidence trail ("this round consumed
   the (eps,delta) it was promised and every proof verified"), distinct
   from the metrics registry: events are ordered, typed, and replayable
   by [audit].

   Everything recorded here must already be publishable: mechanism
   parameters, proof verdicts, timings. torlint's privacy-flow pass
   treats this module as a sink, so pre-noise counter residues can
   never reach it.

   Recording is gated on the global telemetry flag and, like Metrics
   and Trace, is store-based: a pool task bracketed by
   [scope_begin]/[scope_end] buffers its events domain-locally and the
   orchestrator replays the buffers in task index order, so the ledger
   for a given run is identical at any --jobs setting (timing fields
   aside — [to_jsonl ~timings:false] is the canonical form). *)

type event =
  | Grant of { system : string; epsilon : float; delta : float }
  | Draw of {
      system : string;
      counter : string;
      mechanism : string;
      epsilon : float;
      delta : float;
      cum_epsilon : float;
      cum_delta : float;
    }
  | Proof of { kind : string; party : int; ok : bool; batch : int }
  | Phase of { name : string; wall_s : float; alloc_bytes : float }
  | Note of { key : string; value : string }

(* --- recording --- *)

let main : event list ref = ref [] (* reverse order *)
let main_count = ref 0

(* running (eps, delta) per system, maintained by [draw] *)
let running : (string, float * float) Hashtbl.t = Hashtbl.create 8

type scope = { mutable sl_events : event list; mutable sl_count : int }

let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let scope_begin () = Domain.DLS.set scope_key (Some { sl_events = []; sl_count = 0 })

let scope_end () =
  match Domain.DLS.get scope_key with
  | Some s ->
    Domain.DLS.set scope_key None;
    s
  | None -> { sl_events = []; sl_count = 0 }

let append ev =
  match Domain.DLS.get scope_key with
  | Some s ->
    s.sl_events <- ev :: s.sl_events;
    s.sl_count <- s.sl_count + 1
  | None ->
    main := ev :: !main;
    incr main_count

let scope_merge (s : scope) = List.iter append (List.rev s.sl_events)

let record ev = if !Control.on then append ev
let grant ~system ~epsilon ~delta = record (Grant { system; epsilon; delta })

(* Budget draws run orchestrator-side (schedule registration, protocol
   setup), never inside pool workers: the cumulative spend is read from
   one shared table at record time. *)
let draw ~system ~counter ~mechanism ~epsilon ~delta =
  if !Control.on then begin
    let ce, cd =
      match Hashtbl.find_opt running system with Some (e, d) -> (e, d) | None -> (0.0, 0.0)
    in
    let ce = ce +. epsilon and cd = cd +. delta in
    Hashtbl.replace running system (ce, cd);
    append (Draw { system; counter; mechanism; epsilon; delta; cum_epsilon = ce; cum_delta = cd })
  end

let proof ~kind ~party ~ok ~batch = record (Proof { kind; party; ok; batch })
let note ~key ~value = record (Note { key; value })

(* A phase is a traced span that additionally leaves a Phase event in
   the ledger at completion (timings are the only jobs-dependent
   fields; [audit] and the canonical form ignore them). *)
let phase ?attrs name f =
  if not !Control.on then f ()
  else
    Trace.with_span ?attrs name (fun () ->
        let t0 = Trace.now () in
        let a0 = Gc.allocated_bytes () in
        let finish () =
          append
            (Phase
               { name; wall_s = Trace.now () -. t0; alloc_bytes = Gc.allocated_bytes () -. a0 })
        in
        match f () with
        | v ->
          finish ();
          v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          finish ();
          Printexc.raise_with_backtrace e bt)

let events () = List.rev !main
let size () = !main_count

let reset () =
  main := [];
  main_count := 0;
  Hashtbl.reset running

(* --- JSONL export / import --- *)

(* Floats are written shortest round-trip by [Json], so [of_jsonl]
   reconstructs every field bit-for-bit (all recorded quantities are
   finite by construction). *)
let event_json ~timings ev =
  let open Json in
  match ev with
  | Grant { system; epsilon; delta } ->
    Obj
      [ ("e", Str "grant"); ("system", Str system); ("epsilon", Num epsilon); ("delta", Num delta) ]
  | Draw { system; counter; mechanism; epsilon; delta; cum_epsilon; cum_delta } ->
    Obj
      [
        ("e", Str "draw"); ("system", Str system); ("counter", Str counter);
        ("mechanism", Str mechanism); ("epsilon", Num epsilon); ("delta", Num delta);
        ("cum_epsilon", Num cum_epsilon); ("cum_delta", Num cum_delta);
      ]
  | Proof { kind; party; ok; batch } ->
    Obj
      [
        ("e", Str "proof"); ("kind", Str kind); ("party", int party); ("ok", Bool ok);
        ("batch", int batch);
      ]
  | Phase { name; wall_s; alloc_bytes } ->
    let w, a = if timings then (wall_s, alloc_bytes) else (0.0, 0.0) in
    Obj [ ("e", Str "phase"); ("name", Str name); ("wall_s", Num w); ("alloc_bytes", Num a) ]
  | Note { key; value } -> Obj [ ("e", Str "note"); ("key", Str key); ("value", Str value) ]

let to_jsonl ?(timings = true) evs =
  String.concat "" (List.map (fun ev -> Json.to_string (event_json ~timings ev) ^ "\n") evs)

let ( let* ) = Result.bind

let str_field obj k =
  match Json.member k obj with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "field %S missing or not a string" k)

let num_field obj k =
  match Json.member k obj with
  | Some (Json.Num v) -> Ok v
  | _ -> Error (Printf.sprintf "field %S missing or not a number" k)

let int_field obj k =
  let* v = num_field obj k in
  if Float.is_integer v && Float.abs v <= 1e9 then Ok (int_of_float v)
  else Error (Printf.sprintf "field %S is not an integer" k)

let bool_field obj k =
  match Json.member k obj with
  | Some (Json.Bool v) -> Ok v
  | _ -> Error (Printf.sprintf "field %S missing or not a boolean" k)

(* [obj] is one parsed line; a non-object has no "e" field *)
let event_of_json obj =
  let* tag = str_field obj "e" in
  match tag with
  | "grant" ->
    let* system = str_field obj "system" in
    let* epsilon = num_field obj "epsilon" in
    let* delta = num_field obj "delta" in
    Ok (Grant { system; epsilon; delta })
  | "draw" ->
    let* system = str_field obj "system" in
    let* counter = str_field obj "counter" in
    let* mechanism = str_field obj "mechanism" in
    let* epsilon = num_field obj "epsilon" in
    let* delta = num_field obj "delta" in
    let* cum_epsilon = num_field obj "cum_epsilon" in
    let* cum_delta = num_field obj "cum_delta" in
    Ok (Draw { system; counter; mechanism; epsilon; delta; cum_epsilon; cum_delta })
  | "proof" ->
    let* kind = str_field obj "kind" in
    let* party = int_field obj "party" in
    let* ok = bool_field obj "ok" in
    let* batch = int_field obj "batch" in
    Ok (Proof { kind; party; ok; batch })
  | "phase" ->
    let* name = str_field obj "name" in
    let* wall_s = num_field obj "wall_s" in
    let* alloc_bytes = num_field obj "alloc_bytes" in
    Ok (Phase { name; wall_s; alloc_bytes })
  | "note" ->
    let* key = str_field obj "key" in
    let* value = str_field obj "value" in
    Ok (Note { key; value })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let of_jsonl text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      if String.trim line = "" then go (lineno + 1) acc rest
      else
        match Result.bind (Json.parse line) event_of_json with
        | Ok ev -> go (lineno + 1) (ev :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

(* --- audit --- *)

type audit = {
  ok : bool;
  violations : string list;
  proofs_checked : int;
  proofs_failed : int;
  grants : (string * (float * float)) list;  (* per system (eps, delta) *)
  spends : (string * (float * float)) list;
}

(* relative comparison; absolute scale comes from the values themselves
   so delta-magnitude (1e-11) discrepancies are still caught *)
let close a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= 1e-9 *. scale

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun ((a : string), _) (b, _) -> compare a b)

let audit evs =
  let violations = ref [] in
  let flag fmt = Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt in
  let grants : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
  let spends : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
  let checked = ref 0 and failed = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Grant { system; epsilon; delta } ->
        let e0, d0 =
          match Hashtbl.find_opt grants system with Some g -> g | None -> (0.0, 0.0)
        in
        Hashtbl.replace grants system (e0 +. epsilon, d0 +. delta)
      | Draw { system; counter; epsilon; delta; cum_epsilon; cum_delta; _ } ->
        let e0, d0 =
          match Hashtbl.find_opt spends system with Some s -> s | None -> (0.0, 0.0)
        in
        let e1 = e0 +. epsilon and d1 = d0 +. delta in
        Hashtbl.replace spends system (e1, d1);
        if not (close e1 cum_epsilon) then
          flag "draw %s/%s: recorded cumulative epsilon %.9g disagrees with replay %.9g" system
            counter cum_epsilon e1;
        if not (close d1 cum_delta) then
          flag "draw %s/%s: recorded cumulative delta %.9g disagrees with replay %.9g" system
            counter cum_delta d1
      | Proof { kind; party; ok; batch = _ } ->
        incr checked;
        if not ok then begin
          incr failed;
          flag "proof %s failed for party %d" kind party
        end
      | Phase _ | Note _ -> ())
    evs;
  List.iter
    (fun (system, (eps, delta)) ->
      match Hashtbl.find_opt grants system with
      | None -> () (* ungranted systems are recorded but not bounded *)
      | Some (ge, gd) ->
        if eps > ge *. (1.0 +. 1e-9) then
          flag "budget overspend for %s: epsilon %.9g drawn against grant %.9g" system eps ge;
        if delta > gd *. (1.0 +. 1e-9) then
          flag "budget overspend for %s: delta %.9g drawn against grant %.9g" system delta gd)
    (sorted_bindings spends);
  let violations = List.rev !violations in
  {
    ok = violations = [];
    violations;
    proofs_checked = !checked;
    proofs_failed = !failed;
    grants = sorted_bindings grants;
    spends = sorted_bindings spends;
  }

(* --- human summary --- *)

let summary evs =
  let b = Buffer.create 2048 in
  Buffer.add_string b "== run ledger ==\n";
  let a = audit evs in
  (* budgets *)
  if a.grants <> [] || a.spends <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "   %-14s %14s %14s %14s %14s\n" "budget" "granted eps" "spent eps"
         "granted delta" "spent delta");
    let systems =
      List.sort_uniq compare (List.map fst a.grants @ List.map fst a.spends)
    in
    List.iter
      (fun system ->
        let ge, gd =
          match List.assoc_opt system a.grants with Some g -> g | None -> (0.0, 0.0)
        in
        let se, sd =
          match List.assoc_opt system a.spends with Some s -> s | None -> (0.0, 0.0)
        in
        Buffer.add_string b
          (Printf.sprintf "   %-14s %14.6g %14.6g %14.6g %14.6g\n" system ge se gd sd))
      systems
  end;
  (* proofs by kind *)
  let proofs : (string, int * int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Proof { kind; ok; batch; _ } ->
        let n, f, bt =
          match Hashtbl.find_opt proofs kind with Some t -> t | None -> (0, 0, 0)
        in
        Hashtbl.replace proofs kind (n + 1, (f + if ok then 0 else 1), bt + batch)
      | _ -> ())
    evs;
  if Hashtbl.length proofs > 0 then begin
    Buffer.add_string b
      (Printf.sprintf "   %-22s %8s %8s %12s\n" "proof" "checked" "failed" "batch total");
    List.iter
      (fun (kind, (n, f, bt)) ->
        Buffer.add_string b (Printf.sprintf "   %-22s %8d %8d %12d\n" kind n f bt))
      (sorted_bindings proofs)
  end;
  (* phases by name, in first-completion order *)
  let order = ref [] in
  let phases : (string, int * float * float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | Phase { name; wall_s; alloc_bytes } ->
        (match Hashtbl.find_opt phases name with
        | Some (n, w, al) -> Hashtbl.replace phases name (n + 1, w +. wall_s, al +. alloc_bytes)
        | None ->
          order := name :: !order;
          Hashtbl.replace phases name (1, wall_s, alloc_bytes))
      | _ -> ())
    evs;
  if !order <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "   %-34s %8s %12s %12s\n" "phase" "count" "total ms" "alloc MB");
    List.iter
      (fun name ->
        match Hashtbl.find_opt phases name with
        | Some (n, w, al) ->
          Buffer.add_string b
            (Printf.sprintf "   %-34s %8d %12.2f %12.2f\n" name n (1e3 *. w) (al /. 1048576.0))
        | None -> ())
      (List.rev !order)
  end;
  List.iter
    (fun ev ->
      match ev with
      | Note { key; value } -> Buffer.add_string b (Printf.sprintf "   note %s = %s\n" key value)
      | _ -> ())
    evs;
  Buffer.add_string b
    (Printf.sprintf "   %d events, %d proofs checked, %d failed\n" (List.length evs)
       a.proofs_checked a.proofs_failed);
  Buffer.contents b
