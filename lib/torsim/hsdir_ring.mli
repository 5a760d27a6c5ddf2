(** The onion-service directory DHT (paper §2.1): HSDir relays are
    ordered on a hash ring; a descriptor is stored at [spread]
    consecutive relays starting at each of [replicas] ring positions
    derived from the descriptor ID (v2: 2 replicas x 3 spread = 6
    relays). *)

type t

val create : ?replicas:int -> ?spread:int -> Relay.id array -> t
(** Build the ring over the given HSDir relays. *)

val size : t -> int
(** Number of HSDirs on the ring. *)

val responsible : t -> string -> Relay.id list
(** The distinct relays responsible for a descriptor id (onion
    address); at most [slots], fewer if the ring is small or the
    replica windows overlap. *)

val fetch_visibility : ?samples:int -> t -> Relay.id list -> float
(** Probability that a descriptor fetch (one uniformly-chosen
    responsible relay) lands at an observer, averaged over sample
    addresses — accounts for the observers' actual arc share under
    consistent hashing. *)

val publish_visibility : ?samples:int -> t -> Relay.id list -> float
(** Probability that at least one of a descriptor's responsible relays
    is an observer (a published address is seen by PSC). *)
