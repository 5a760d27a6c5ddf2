(** Seeded deterministic message scheduler. Parties never call each
    other: a handler reacts to a delivered envelope by [post]ing new
    messages, and [run] drains the network to quiescence.

    Determinism contract: delivery order is a pure function of the run
    seed and the sequence of [post]/[set_delay]/[crash] calls. Each
    posted message is assigned a delivery time [now + jitter * delay]
    where jitter is drawn from a DRBG-style stream seeded only by the
    run seed, and ties are broken by the global post sequence number —
    so two runs with the same seed and the same party behaviour deliver
    byte-identical messages in the same order regardless of wall clock,
    pool size or host. Every hop serializes: [post] stores the encoded
    envelope bytes and delivery re-decodes them, so a value that cannot
    round-trip the wire format cannot influence any party. *)

type t

type stats = {
  delivered : int;
  dropped : int;  (** messages addressed to crashed parties *)
  bytes : int;  (** total encoded envelope bytes delivered *)
}

val create : seed:int -> t

val register : t -> Party.t -> (Envelope.t -> bool) -> unit
(** Add a handler for a party. A party may register several (one per
    hosted pipeline); on delivery they are tried in registration order
    until one returns [true]. An envelope no handler claims is a
    protocol bug: [run] raises [Invalid_argument]. *)

val post :
  t -> epoch:int -> src:Party.t -> dst:Party.t -> kind:string -> body:string -> unit
(** Enqueue a message. The envelope is encoded immediately; posting to
    a crashed party counts it dropped at delivery time. *)

val set_delay : t -> Party.t -> int -> unit
(** Link weight multiplier for messages to or from the party (default
    1). Used by the slow-CP scenario; larger values delay delivery
    relative to other traffic without changing what is delivered. *)

val crash : t -> Party.t -> unit
(** Stop delivering to the party; queued and future messages for it are
    counted in [stats.dropped]. Handlers stay registered (a restart
    scenario builds a fresh scheduler instead of un-crashing). *)

val crashed : t -> Party.t -> bool

val run : t -> stats
(** Deliver until no messages remain (messages posted during delivery
    included). Returns cumulative stats for this scheduler. *)

val order_digest : t -> string
(** Hex SHA-256 over the delivery order so far: each delivered
    envelope's bytes followed by ['\n'], in delivery sequence. The hash
    streams as messages are delivered; nothing is buffered. *)
