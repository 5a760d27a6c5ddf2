(** A full PrivCount deployment: 1 tally server, [num_sks] share
    keepers, one data collector per observed relay. Orchestrates the
    blinding exchange, the collection period, and the final tally
    (paper §2.3, §3.1). *)

type config = {
  specs : Counter.spec list;
  params : Dp.Mechanism.params; (** the round's total privacy budget *)
  num_sks : int;
  split_budget : bool;
      (** divide ε, δ evenly across counters (PrivCount default);
          disable for single-counter rounds *)
}

val config :
  ?num_sks:int -> ?split_budget:bool -> ?params:Dp.Mechanism.params ->
  Counter.spec list -> config

type t

val total_sigma : config -> Counter.spec -> float
(** Total noise stddev a counter will carry under [config] (before the
    per-DC variance split). *)

(** {2 Per-party derivations}

    Written once and called by both {!create} and the bus-hosted
    parties ({!Node}), so the two paths draw the same streams and
    record the same ledger events. *)

val blinding_row : seed:int -> dc:int -> sk:int -> counters:int -> int array
(** The pairwise blinding shares DC [dc] and SK [sk] both derive for a
    round, in counter-id order (stands in for PrivCount's encrypted
    share exchange). *)

val check_blinding : seed:int -> dc:int -> (int * int array) list -> unit
(** Re-derive each [(sk, row)] of DC [dc]'s blinding rows and record
    one [privcount-blinding] ledger proof over all of them. *)

val noise_rng : seed:int -> Prng.Rng.t
(** The round's shared noise RNG, consumed dc-major in counter-id order
    by {!create}. A bus-hosted DC replays the earlier DCs' draws to
    reach its own position in the stream. *)

val sigma_per_dc :
  ?noise_weights:float array -> config -> num_dcs:int -> dc:int -> Counter.spec -> float
(** A DC's share of a counter's noise stddev: the per-DC variances sum
    to {!total_sigma}, split equally or by [noise_weights]. *)

val record_budget : config -> Counter.Intern.t -> unit
(** Ledger the round's budget: the authorized grant, then one draw per
    counter in id order (no-op with telemetry off). *)

val create : ?noise_weights:float array -> config -> num_dcs:int -> seed:int -> t
(** [noise_weights] splits the noise variance across DCs proportionally
    to each relay's observation weight (PrivCount's allocation); equal
    split by default. *)

val counter_id : t -> string -> int
(** Resolve a counter name to its interned id, once, at wiring time.
    Raises [Invalid_argument] for names outside the round's config. *)

type emit = int -> int -> unit
(** [emit id by] adds [by] to the counter with interned id [id]. *)

val sink_for : t -> dc:int -> (emit -> 'ev -> unit) -> 'ev -> unit
(** Push-style event sink for DC [dc]: [fill emit ev] calls [emit] for
    each increment. With ids pre-resolved via {!counter_id}, the
    per-event path allocates nothing. *)

val increment : t -> dc:int -> name:string -> by:int -> unit

val tally : ?dropped_dcs:int list -> t -> Ts.result list
(** Close the round: every SK releases its share sums, the TS unblinds
    and publishes noisy aggregates. Callable once. [dropped_dcs] lists
    relays that crashed mid-round: their reports are discarded and the
    SKs exclude exactly their blinding shares, so the rest of the round
    still tallies (PrivCount's dropout recovery). *)
