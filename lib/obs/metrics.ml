(* Process-wide metrics registry: monotonic counters and gauges. Wall
   time is not a metric: spans and ledger phases carry it. All
   operations are name-based and no-ops while telemetry is disabled, so
   a disabled run leaves the registry empty (no residue). Metric names
   follow the Prometheus convention; [labeled] builds the `name{k="v"}`
   form.

   While a pool task has a scope open (scope_begin/scope_end, used by
   lib/parallel), writes land in a domain-local side table instead of
   the shared registry; [scope_merge] folds them back in on the
   orchestrating domain, so worker domains never touch the registry
   concurrently and the merged state matches a sequential run. *)

type value = Counter of float ref | Gauge of float ref

let registry : (string, value) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset registry

(* --- domain-local scopes --- *)

type scope = {
  sc_counters : (string, float ref) Hashtbl.t;
  mutable sc_gauges : (string * float) list;  (* reverse write order *)
}

let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scope_begin () =
  Domain.DLS.set scope_key
    (Some { sc_counters = Hashtbl.create 16; sc_gauges = [] })

let scope_end () =
  match Domain.DLS.get scope_key with
  | Some s ->
    Domain.DLS.set scope_key None;
    s
  | None ->
    (* unbalanced end: merging the empty scope is a no-op *)
    { sc_counters = Hashtbl.create 1; sc_gauges = [] }

let active_scope () = Domain.DLS.get scope_key

let scope_counter_ref s name =
  match Hashtbl.find_opt s.sc_counters name with
  | Some c -> c
  | None ->
    let c = ref 0.0 in
    Hashtbl.replace s.sc_counters name c;
    c

(* --- label helper --- *)

let escape_label v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let labeled name labels =
  match labels with
  | [] -> name
  | labels ->
    let b = Buffer.create 64 in
    Buffer.add_string b name;
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_label v);
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}';
    Buffer.contents b

(* --- counters --- *)

let counter_ref name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a counter" name)
  | None ->
    let c = ref 0.0 in
    Hashtbl.replace registry name (Counter c);
    c

let inc_float name by =
  if !Control.on then begin
    if by < 0.0 then invalid_arg (Printf.sprintf "Metrics.inc_float %s: counters are monotonic" name);
    let c =
      match active_scope () with Some s -> scope_counter_ref s name | None -> counter_ref name
    in
    c := !c +. by
  end

let inc ?(by = 1) name =
  if !Control.on then begin
    if by < 0 then invalid_arg (Printf.sprintf "Metrics.inc %s: counters are monotonic" name);
    let c =
      match active_scope () with Some s -> scope_counter_ref s name | None -> counter_ref name
    in
    c := !c +. float_of_int by
  end

(* --- gauges --- *)

let gauge_ref name =
  match Hashtbl.find_opt registry name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %s is not a gauge" name)
  | None ->
    let g = ref 0.0 in
    Hashtbl.replace registry name (Gauge g);
    g

let set name v =
  if !Control.on then
    match active_scope () with
    | Some s -> s.sc_gauges <- (name, v) :: s.sc_gauges
    | None -> gauge_ref name := v

(* --- read side --- *)

type reading = Counter_sample of float | Gauge_sample of float

type sample = { name : string; value : reading }

let snapshot () =
  Hashtbl.fold
    (fun name v acc ->
      let value = match v with Counter c -> Counter_sample !c | Gauge g -> Gauge_sample !g in
      { name; value } :: acc)
    registry []
  |> List.sort (fun a b -> compare a.name b.name)

let counter_value name =
  match Hashtbl.find_opt registry name with Some (Counter c) -> Some !c | _ -> None

(* --- scope merge --- *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun ((a : string), _) (b, _) -> compare a b)

(* Fold a detached scope into the shared registry: counters coalesce
   (order-free up to float-counter rounding in the last ulps), gauge
   writes replay in recording order. Called on the orchestrating domain
   only, after the pool barrier. *)
let scope_merge (s : scope) =
  List.iter
    (fun (name, c) ->
      let g = counter_ref name in
      g := !g +. !c)
    (sorted_bindings s.sc_counters);
  List.iter (fun (name, v) -> gauge_ref name := v) (List.rev s.sc_gauges)
