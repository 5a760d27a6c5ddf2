(** Versioned binary message envelope: every byte that crosses the bus
    is one of these. The body is an opaque payload the per-pipeline wire
    modules encode/decode; the envelope itself carries routing and
    replay metadata only. *)

type t = {
  epoch : int;
  seq : int;  (** sender-assigned, unique per run; breaks delivery ties *)
  src : Party.t;
  dst : Party.t;
  kind : string;  (** payload discriminator, e.g. ["pc.dc_report"] *)
  body : string;
}

val encode : t -> string

val decode : string -> (t, Codec.error) result
(** Typed failure on truncation, wrong magic, versions newer than the
    current wire format version (1, encoded in every envelope), or
    trailing bytes — decoding never raises. *)

val to_string : t -> string
(** One-line human rendering (body abbreviated to its length). *)
