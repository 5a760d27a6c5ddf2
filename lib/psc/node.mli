(** Bus-hosted PSC parties: wire plus dispatch. Each handler decodes a
    {!Wire} message and calls the matching per-phase function of
    {!Protocol} — the same key, noise, shuffle and decryption checks,
    DRBG streams and estimator the in-process {!Protocol.run} drives —
    so the published estimate is byte-identical to it at the same seed,
    config and inserts, and a tampering CP is blamed by the same
    ledger proofs.

    The CPs publish keys at spawn; once every key has arrived the TS
    verifies them, broadcasts the joint key, and the DCs build their
    oblivious tables. Aggregation is one message-driven cascade: noise,
    then the per-CP shuffle → verify → rerandomize chain, then joint
    decryption. *)

type cfg = {
  round : Protocol.config;
      (** the round's parameters, [tamper] included; the bus always
          proves, so [verify] must be on and [proof_rounds] set *)
  num_dcs : int;  (** the epoch's full deployment size *)
  seed : int;
}

(** {2 Computation party} *)

val spawn_cp : Bus.Sched.t -> epoch:int -> cfg -> id:int -> unit
(** Create the CP (same DRBG stream as the in-process path), post its
    key, and register the cascade handlers. The CP misbehaves as
    [round.tamper] says when it names this CP. *)

(** {2 Data collector} *)

type dc

val spawn_dc : Bus.Sched.t -> cfg -> id:int -> dc
(** The table is built when the joint key arrives — run the scheduler
    to quiescence after setup before inserting. *)

val dc_insert : dc -> string -> unit
(** Local observation (raises if the joint key has not arrived yet). *)

val dc_state : dc -> string
(** Checkpoint blob: the table's encrypted slots. *)

val dc_load : dc -> string -> (unit, Bus.Codec.error) result
(** Restore the table slots from a checkpoint blob; records a
    [bus-restore-dc] ledger proof. A blob of the wrong table size is
    [Error (Invalid _)] and leaves the table untouched. *)

(** {2 Tally server / aggregator} *)

type ts

val spawn_ts : Bus.Sched.t -> cfg -> ts
(** Raises [Invalid_argument] unless [round] verifies with proofs. *)

val ts_request_tables : ts -> epoch:int -> dcs:int list -> unit
(** Ask each listed DC for its table (crashed DCs never answer). Run
    the scheduler before starting the aggregate. *)

val ts_start_aggregate : ts -> epoch:int -> unit
(** Post the noise requests; the rest of the cascade is message-driven
    and completes within the next scheduler run. *)

val ts_result : ts -> (Protocol.result * string) option
(** The published estimate and its canonical bytes
    ({!Wire.encode_result}), once the cascade has finished. *)
