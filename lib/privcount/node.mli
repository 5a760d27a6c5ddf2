(** Bus-hosted PrivCount parties: wire plus dispatch. Each spawn
    registers message handlers on the scheduler; after that the TS, DCs
    and SKs communicate only through serialized envelopes (see {!Wire})
    — no direct cross-party calls. Every derivation and check is the
    one {!Deployment} runs in-process — blinding rows
    ({!Deployment.blinding_row}, {!Deployment.check_blinding}), per-DC
    noise ({!Deployment.sigma_per_dc}, {!Deployment.noise_rng}, which a
    DC fast-forwards to its own draw position) and budget accounting
    ({!Deployment.record_budget}) — so at the same seed and event
    stream the published tallies are byte-identical. *)

type cfg = {
  round : Deployment.config;
  num_dcs : int;  (** the epoch's full deployment size *)
  seed : int;
}

(** {2 Data collector} *)

type dc

val spawn_dc : Bus.Sched.t -> epoch:int -> cfg -> id:int -> dc
(** Derive noise and blinding, post the blinding-share rows to every
    SK, and register the report handler. *)

val dc_increment : dc -> name:string -> by:int -> unit
(** Local observation at the relay (events are observations, not
    protocol messages). Unknown counters are dropped. *)

val dc_state : dc -> string
(** Checkpoint blob: the DC's blinded residues (closes collection). *)

val dc_load : dc -> string -> (unit, Bus.Codec.error) result
(** Restore from a checkpoint blob: the DC will report the
    checkpointed residues instead of its freshly-derived (event-less)
    ones. Records a [bus-restore-dc] ledger proof. *)

(** {2 Share keeper} *)

type sk

val spawn_sk : Bus.Sched.t -> cfg -> id:int -> sk
(** Registers handlers that absorb blinding rows (verifying each
    against the SK's own derivation of the pairwise stream — recorded
    as a [privcount-blinding] ledger proof per DC) and answer the
    round-close request. *)

val sk_check : sk -> string -> bool
(** Restore integrity check: does the checkpointed report blob match
    the state this SK re-derived during setup replay? Records a
    [bus-restore-sk] ledger proof. *)

val sk_state : sk -> string
(** Checkpoint blob: the SK's full share-sum report. *)

(** {2 Tally server} *)

type ts

val spawn_ts : Bus.Sched.t -> cfg -> ts
(** Records the round's budget grant and per-counter draws in the run
    ledger (the same accounting the in-process path performs) and
    registers the report-collection handlers. *)

val ts_request_reports : ts -> epoch:int -> dcs:int list -> unit
(** Post a report request to each listed DC (crashed DCs simply never
    answer — the scheduler drops their mail). Run the scheduler to
    quiescence before closing. *)

val ts_close : ts -> epoch:int -> unit
(** Post the SK close requests, excluding every DC that did not report
    (PrivCount's dropout recovery). Run the scheduler again before
    publishing. *)

val ts_missing_dcs : ts -> int list
(** DCs that were asked to report but have not (ascending). *)

val ts_publish : ts -> Ts.result list * string
(** Tally the collected reports; the string is the canonical published
    bytes ({!Wire.encode_results}) compared for byte-identity across
    bus, in-process and restarted runs. *)
