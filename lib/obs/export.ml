(* Exporters: Prometheus text exposition for the metrics registry,
   JSON lines for trace spans (written by [Json]), and a human
   end-of-run summary table. Output is deterministic for a given
   registry/span-buffer state (snapshots are name-sorted). Prometheus
   text and the summary are not JSON and format numbers with
   [fmt_float]. *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* "name{k="v"}" -> "name" *)
let base_name name =
  match String.index_opt name '{' with None -> name | Some i -> String.sub name 0 i

let prometheus samples =
  let b = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun { Metrics.name; value } ->
      let kind, v =
        match value with
        | Metrics.Counter_sample v -> ("counter", v)
        | Metrics.Gauge_sample v -> ("gauge", v)
      in
      let base = base_name name in
      if not (Hashtbl.mem typed base) then begin
        Hashtbl.replace typed base ();
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
      end;
      Buffer.add_string b (Printf.sprintf "%s %s\n" name (fmt_float v)))
    samples;
  Buffer.contents b

(* --- trace spans as JSON lines --- *)

let span_json (s : Trace.span) =
  let open Json in
  Obj
    [
      ("id", int s.Trace.id);
      ("parent", match s.Trace.parent with None -> Null | Some p -> int p);
      ("depth", int s.Trace.depth);
      ("name", Str s.Trace.name);
      ("start_s", Num s.Trace.start_s);
      ("duration_s", Num s.Trace.duration_s);
      ("alloc_bytes", Num s.Trace.alloc_bytes);
      ("attrs", Obj (List.map (fun (k, v) -> (k, Str v)) s.Trace.attrs));
    ]

let trace_jsonl spans =
  String.concat "" (List.map (fun s -> Json.to_string (span_json s) ^ "\n") spans)

(* --- end-of-run summary --- *)

type agg = { mutable n : int; mutable total_s : float; mutable alloc : float }

let summary samples spans =
  let b = Buffer.create 2048 in
  Buffer.add_string b "== telemetry summary ==\n";
  (* spans aggregated by name *)
  if spans <> [] then begin
    let by_name : (string, agg) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (s : Trace.span) ->
        let a =
          match Hashtbl.find_opt by_name s.Trace.name with
          | Some a -> a
          | None ->
            let a = { n = 0; total_s = 0.0; alloc = 0.0 } in
            Hashtbl.replace by_name s.Trace.name a;
            a
        in
        a.n <- a.n + 1;
        a.total_s <- a.total_s +. s.Trace.duration_s;
        a.alloc <- a.alloc +. s.Trace.alloc_bytes)
      spans;
    let rows =
      Hashtbl.fold (fun name a acc -> (name, a) :: acc) by_name []
      |> List.sort (fun (_, a) (_, b) -> compare b.total_s a.total_s)
    in
    Buffer.add_string b
      (Printf.sprintf "   %-34s %8s %12s %12s %12s\n" "span" "count" "total ms" "mean ms" "alloc MB");
    List.iter
      (fun (name, a) ->
        Buffer.add_string b
          (Printf.sprintf "   %-34s %8d %12.2f %12.4f %12.2f\n" name a.n (1e3 *. a.total_s)
             (1e3 *. a.total_s /. float_of_int a.n)
             (a.alloc /. 1048576.0)))
      rows
  end;
  (* counters and gauges *)
  if samples <> [] then begin
    Buffer.add_string b (Printf.sprintf "   %-58s %16s\n" "metric" "value");
    List.iter
      (fun { Metrics.name; value = Metrics.Counter_sample v | Metrics.Gauge_sample v } ->
        Buffer.add_string b (Printf.sprintf "   %-58s %16s\n" name (fmt_float v)))
      samples
  end;
  Buffer.contents b
