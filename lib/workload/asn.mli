(** Synthetic autonomous-system population (stand-in for CAIDA pfx2as
    and AS-rank). Heavy-tailed: the top-1000 ASes hold just under half
    of the clients and no single AS dominates (§5.2). *)

val top1000_share : float
val active : int
(** ASes that plausibly host Tor clients in the simulation. *)

val sample : Prng.Rng.t -> int
(** A client's AS number, in [1, active]. *)
