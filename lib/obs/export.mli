(** Exporters for the telemetry subsystem. All output is deterministic
    for a given registry / span-buffer state. *)

val prometheus : Metrics.sample list -> string
(** Prometheus text exposition: [# TYPE] lines plus one sample line per
    counter/gauge, and [_bucket]/[_sum]/[_count] lines per histogram. *)

val trace_jsonl : Trace.span list -> string
(** One JSON object per line:
    [{"id":..,"parent":..,"depth":..,"name":..,"start_s":..,
      "duration_s":..,"alloc_bytes":..,"attrs":{..}}], numbers in
    {!Json}'s shortest round-trip form. *)

val summary : Metrics.sample list -> Trace.span list -> string
(** Human-readable end-of-run table: spans aggregated by name (count,
    total/mean wall ms, allocation) followed by every metric. *)
