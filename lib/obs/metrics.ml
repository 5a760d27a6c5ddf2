(* Process-wide metrics registry: monotonic counters and gauges. Wall
   time is not a metric: spans and ledger phases carry it. All
   operations are name-based and no-ops while telemetry is disabled, so
   a disabled run leaves the registry empty (no residue). Metric names
   follow the Prometheus convention; [labeled] builds the `name{k="v"}`
   form.

   The registry is shared and unsynchronised: only the orchestrating
   domain records, never a pool worker (DESIGN.md §3b). *)

type value = Counter of float ref | Gauge of float ref

let registry : (string, value) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset registry

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
    let c = counter_ref name in
    c := !c +. by
  end

let inc ?(by = 1) name =
  if !Control.on then begin
    if by < 0 then invalid_arg (Printf.sprintf "Metrics.inc %s: counters are monotonic" name);
    let c = counter_ref name in
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

let set name v = if !Control.on then gauge_ref name := v

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
