(** Registry of simulated onion services. Addresses are stable hashes
    in the 16-character v2 form; [public] marks services listed in the
    public (ahmia-like) index (Table 7's public/unknown split). *)

type service = {
  address : string;
  public : bool;
  mutable published : bool;
}

type t

val create : unit -> t

val add : t -> public:bool -> service

val populate : t -> count:int -> public_fraction:float -> Prng.Rng.t -> service list

val find : t -> string -> service option

val services : t -> service array

val address_of_index : int -> string
(** The deterministic address of the i-th service. *)

val bogus_address : int -> string
(** A syntactically valid address no service owns — what botnets and
    stale scanners look up (§6.2). *)
