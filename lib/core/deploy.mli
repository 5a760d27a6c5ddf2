(** Scenario driver for the bus-hosted deployment: both measurement
    pipelines — PrivCount (TS + SKs + DCs, blinded counters) and PSC
    (TS + CPs + DCs, oblivious tables) — run side by side on one seeded
    deterministic scheduler, under a failure-injection scenario from
    {!Bus.Scenario.catalogue}. {!run} owns the epoch loop.

    The central claim, locked in by the tests: for every scenario
    {!Bus.Scenario.reference_comparable} accepts, the concatenated
    published bytes equal {!run_reference} — the in-process pipelines
    at the same seed and workload — byte for byte. *)

type config = {
  seed : int;
  epochs : int;
  num_dcs : int;  (** before churn *)
  num_sks : int;
  num_cps : int;
  table_size : int;
  noise_flips_per_cp : int;
  events_per_epoch : int;  (** PrivCount counter observations *)
  items_per_epoch : int;  (** PSC item insertions *)
}

val default_config : ?seed:int -> ?epochs:int -> unit -> config
(** Small deployment (3 DCs, 2 SKs, 3 CPs, 64-slot tables) sized for
    tests and the CLI demo. *)

val counter_specs : Privcount.Counter.spec list
(** The demo deployment's PrivCount counter set. *)

type workload = {
  pc_events : (int * string * int) array;  (** dc, counter, increment *)
  psc_items : (int * string) array;  (** dc, item *)
}

val workload : config -> epoch:int -> live:int -> workload
(** The epoch's synthetic observation stream — a pure function of
    (config, epoch, live), exported so tests can replay the identical
    events into the in-process pipelines (e.g. the dc-crash
    equivalence against {!Privcount.Deployment.tally} with
    [~dropped_dcs]). *)

type publish = {
  epoch : int;
  pc : Privcount.Ts.result list;
  pc_bytes : string;  (** canonical {!Privcount.Wire.encode_results} *)
  psc : Psc.Protocol.result;
  psc_bytes : string;  (** canonical {!Psc.Wire.encode_result} *)
  missing_dcs : int list;  (** DCs that never reported (crash faults) *)
}

type outcome = {
  scenario : string;
  publishes : publish list;  (** one per epoch *)
  digest : string;
      (** hex SHA-256 over every epoch's published bytes, in order —
          the value compared across bus, in-process and restarted runs *)
  detected : bool;  (** some epoch published with failed proofs *)
  culprits : int list;  (** blamed CPs, across epochs *)
  restarts : int;
  stats : Bus.Sched.stats list;  (** per epoch, cumulative per scheduler *)
  order_digests : string list;
      (** per-epoch delivery-order digests ({!Bus.Sched.order_digest}) *)
  last_checkpoint : Bus.Checkpoint.t option;
}

val run : config -> Bus.Scenario.t -> outcome
(** Execute the scenario, epoch by epoch: setup → collect → checkpoint →
    aggregate → publish, each phase inside an [Obs.Ledger.phase] span
    named [deploy.<phase>] with the epoch as an attribute. The
    checkpoint is round-tripped through its binary encoding at capture,
    in every scenario. On the scenario's restart epoch the parties are
    torn down after collection and rebuilt from the decoded checkpoint
    in a second [deploy.setup], after a [deploy.restart] ledger note.

    Raises [Invalid_argument] if [epochs < 1], if a checkpoint does not
    round-trip, or on configs the scenario cannot apply to (e.g. a
    crashed or malicious index outside the deployment). *)

val run_reference : config -> Bus.Scenario.t -> string
(** The same workload through the in-process pipelines
    ({!Privcount.Deployment} and {!Psc.Protocol}), with telemetry
    suppressed so only the bus run populates the ledger; returns the
    digest to compare with {!run}. A malicious CP runs as the same
    [`Shuffle_swap] tamper in both. Raises [Invalid_argument] when
    {!Bus.Scenario.reference_comparable} rejects the scenario (a DC
    crash has no in-process equivalent). *)
