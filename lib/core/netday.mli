(** Sharded whole-network-day driver: the full client population runs
    one day of behaviour plus exit visits, and every relay observation
    flows through the event->counter ingestion path. The population is
    partitioned into a fixed number of shards run on the lib/parallel
    pool and merged in shard order, so the result is bit-identical at
    any pool size (DESIGN.md §3c). This is the whole-network throughput
    benchmark: events/sec through ingestion, not a crypto kernel. *)

type config = {
  relays : int;
  clients : int;            (** selective clients, split across shards *)
  promiscuous : int;
  shards : int;             (** fixed shard count — not the pool size *)
  visits_per_client : int;  (** exit website visits per client *)
}

val default : config
(** 2000 clients, 8 shards, 200 relays, 2 visits/client. *)

type result = {
  tallies : (string * int) list;  (** merged ingestion counters, name-sorted *)
  events : int;                   (** events ingested through the counter sink *)
  per_shard_events : int array;
  truth : Torsim.Ground_truth.t;  (** merged exact truth, for cross-checking *)
}

val counter_names : string list
(** The ingestion counter family, including hostname classifications. *)

val run : ?config:config -> seed:int -> unit -> result
(** Run one network day. Deterministic in [seed] and [config]; the
    shard structure and per-shard PRNG streams depend only on
    [(seed, shard index)], never on scheduling. *)

(** {2 Record / replay}

    [record] runs the day once and captures every ingested event into
    one binary trace segment per shard (shard structure and event
    order inherited from the live run); [replay] memory-loads the
    segments and pushes the decoded events back through the same
    ingestion sink on the parallel pool — no torsim, no workload
    sampling, no per-event allocation — merging in shard order so the
    tallies are byte-identical to the live run at any [--jobs]
    (DESIGN.md §3f). *)

type recording = {
  result : result;  (** the live run this recording captured *)
  segments : string array;  (** sealed trace segments, shard order *)
}

val record : ?config:config -> seed:int -> unit -> recording
(** Run one network day, recording as it ingests. [result] is exactly
    what {!run} would have returned for the same [(config, seed)]. *)

val segment_path : prefix:string -> shard:int -> string
(** ["<prefix>.seg<shard>"] — the on-disk layout of a recording. *)

val load_recording : prefix:string -> Evtrace.Segment.t array
(** Read segment 0 for the shard count, then every remaining shard.
    Raises [Evtrace.Error] on unreadable or malformed segments. *)

type replay_result = {
  replayed_tallies : (string * int) list;  (** merged, name-sorted *)
  replayed_events : int;
  replayed_per_shard : int array;
}

val replay : ?repeat:int -> ?verify:bool -> Evtrace.Segment.t array -> replay_result
(** Replay the segments through the ingestion sink, each shard on the
    parallel pool, merged in shard order. [repeat] pushes every
    segment through ingestion that many times (throughput runs at
    multiples of the recorded size); tallies and counts scale
    accordingly. Raises [Evtrace.Error] on malformed payloads or
    segments from different recordings, [Evtrace.Mismatch] when
    [verify] is set and a replayed per-shard event count or tally
    disagrees with the recorded header, and [Invalid_argument] on an
    empty segment set or non-positive [repeat]. *)
