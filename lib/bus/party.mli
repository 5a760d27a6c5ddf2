(** Protocol party addresses. One address space covers both pipelines:
    the tally server doubles as PSC's aggregator, and [Dc i] is the same
    machine whether it reports blinded PrivCount counters or PSC table
    submissions. *)

type t =
  | Ts
  | Dc of int
  | Sk of int
  | Cp of int

val equal : t -> t -> bool
val to_string : t -> string

val write : Codec.W.t -> t -> unit
val read : Codec.R.t -> t
