(** A PrivCount share keeper: holds the blinding shares exchanged with
    each DC, per counter. With at least one honest SK, the tally server
    learns only the final noisy aggregate. Shares are kept per DC so a
    crashed relay's shares can be excluded and the round still tallies
    (PrivCount's dropout recovery). *)

type t

val create : id:int -> intern:Counter.Intern.t -> num_dcs:int -> t

val absorb : t -> dc:int -> counter:int -> int -> unit
(** [counter] is an interned counter id. One array write, no hashing. *)

val report : ?exclude_dcs:int list -> t -> (string * int) list
(** Per-counter share sums over the DCs that completed the round, in
    counter name order. *)
