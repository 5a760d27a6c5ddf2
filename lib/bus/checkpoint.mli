(** Per-party checkpoint/restore. A checkpoint captures, at an epoch
    phase boundary, one opaque state blob per party; restoring replays
    setup from the (seed, epoch) pair — which re-derives every DRBG
    position deterministically — then loads the blobs over it. The file
    format is a versioned binary record with the same typed-error
    decoding discipline as envelopes. *)

type entry = { party : Party.t; state : string }

type t = {
  seed : int;
  scenario : string;
  epoch : int;  (** the epoch whose collection the blobs capture *)
  phase : string;  (** epoch phase the checkpoint was taken after *)
  entries : entry list;
}

val version : int
val encode : t -> string
val decode : string -> (t, Codec.error) result

val load : string -> (t, Codec.error) result
(** [Invalid] carries the OS error message when the file is unreadable. *)

val find : t -> Party.t -> string option
(** The party's state blob, if captured. *)
