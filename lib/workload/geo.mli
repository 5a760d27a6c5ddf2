(** Synthetic geographic population model (stand-in for MaxMind
    GeoLite2 lookups). Countries carry a client-population weight plus
    behaviour modifiers; the UAE entry reproduces the paper's anomaly —
    many directory circuits, almost no data (§5.2). *)

type country = {
  code : string;
  weight : float;        (** share of the client population *)
  circuit_boost : float; (** multiplier on circuits built per client *)
  data_scale : float;    (** multiplier on bytes transferred per client *)
}

val universe : country array
(** [major] plus a ~210-country tail, so PSC's unique-country count can
    approach the paper's 203-of-250. *)

val sample : Prng.Rng.t -> country
(** Weighted draw of a client's country. *)

val find : string -> country option
