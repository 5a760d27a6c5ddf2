(** Failure-injection scenario catalogue. A scenario is a benign
    multi-epoch deployment plus a list of faults; the deploy driver
    interprets the faults, so this module is pure description. *)

type fault =
  | Dc_crash of { dc : int; epoch : int }
      (** the DC stops mid-collection and never reports *)
  | Churn of { epoch : int; delta : int }
      (** relay churn between rounds: from [epoch] on, the DC count
          changes by [delta] (new relays join, or old ones leave) *)
  | Slow of { party : Party.t; factor : int }
      (** all the party's traffic is delayed [factor]x; must not change
          any published value, only the delivery schedule *)
  | Malicious_cp of { cp : int }
      (** the CP submits a tampered shuffle with a forged proof; honest
          parties must reject and the run ledger must record the failed
          proof *)
  | Restart of { epoch : int }
      (** after [epoch]'s collection, the run is torn down and resumed
          from the checkpoint; published tallies must be byte-identical
          to the uninterrupted run *)

type t = {
  name : string;
  summary : string;
  faults : fault list;
}

val catalogue : t list
(** All known scenarios: benign, dc-crash, churn, slow-cp,
    malicious-cp, restart. *)

val find : string -> t option
val names : unit -> string list

(** {2 Fault queries used by the driver} *)

val crashed_dc : t -> epoch:int -> int option
val dcs_at : t -> base_dcs:int -> epoch:int -> int
val slow : t -> (Party.t * int) list
val malicious_cp : t -> int option
val restart_epoch : t -> int option

val reference_comparable : t -> bool
(** True when published bytes must equal the in-process reference
    pipeline at the same seed: every fault but a DC crash has an
    in-process equivalent. *)
