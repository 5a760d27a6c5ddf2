(** The simulation engine. A workload driver (lib/workload) calls the
    action functions; the engine routes each action through
    consensus-weighted relay choices, updates exact ground truth, and
    delivers observation events to the collectors registered at
    observer relays. *)

type t

val create : ?seed:int -> Consensus.t -> t

val consensus : t -> Consensus.t
val truth : t -> Ground_truth.t
val hsdir_ring : t -> Hsdir_ring.t
val onion_registry : t -> Onion.t

val add_sink : t -> Relay.id -> (Event.t -> unit) -> unit
(** Register a data collector at a relay; every event observed at that
    relay is passed to the sink. *)

(* --- client-side actions (observed at guards) --- *)

val connect : t -> Client.t -> unit
(** One TCP connection from the client to one of its guards. *)

val connect_all_guards : t -> Client.t -> unit
(** Promiscuous behaviour: one connection to every guard in the
    client's set. *)

val data_circuit : t -> Client.t -> unit
(** Build one general-purpose circuit through the primary guard. *)

val directory_circuit : t -> Client.t -> unit
(** Directory fetch circuit through one of the directory guards; also
    counted by the Tor-Metrics-style baseline estimator. *)

val entry_bytes : t -> Client.t -> float -> unit

(* --- exit-side actions (observed at exits) --- *)

val exit_visit :
  t -> Client.t -> dest:Event.dest -> port:int -> subsequent_streams:int ->
  ?subsequent_dest:(int -> Event.dest * int) ->
  bytes:float -> unit -> unit
(** One website visit: a fresh circuit whose first stream carries the
    user-intended destination, followed by [subsequent_streams] streams
    for embedded resources (paper §4.1). [subsequent_dest i] supplies
    the destination of the i-th embedded-resource stream (third-party
    CDN/ad hosts in the realistic workload); default: the page's own
    host. *)

(* --- onion-service actions (observed at HSDirs / rendezvous points) --- *)

val publish_descriptor : t -> address:string -> first_publish:bool -> unit
(** Store a descriptor at all responsible HSDirs. *)

val fetch_descriptor : t -> address:string -> unit
(** Client-side descriptor fetch at one responsible HSDir; succeeds iff
    a service with this address has published. *)

val fetch_malformed : t -> unit
(** A malformed request hits a random HSDir. *)

val rendezvous : t -> outcome:Event.rend_outcome -> unit
(** One rendezvous circuit at a weighted-random rendezvous point. A
    successful end-to-end rendezvous is two circuits at the RP; drivers
    call this twice for success cases (paper §6.3). *)
