(** A data collector's oblivious counter table: a vector of ElGamal
    ciphertexts under the CPs' joint key. Slots start as fresh
    encryptions of bit 0; inserting overwrites the item's slot with a
    fresh encryption of bit 1 — every write is a fresh ciphertext, so
    the table never reveals which slots were touched or how often. *)

type t

val create :
  ?tab:Crypto.Group.precomp ->
  table_size:int -> key:Crypto.Hmac.keyed -> joint:Crypto.Elgamal.pub -> drbg:Crypto.Drbg.t ->
  unit -> t
(** [key] is the round's prepared slot-hash key ({!Item.slot}). [?tab]
    is a fixed-base table for [joint], shared across the DCs' tables by
    the caller; built locally when absent. *)

val insert : t -> string -> unit

val slots : t -> Crypto.Elgamal.ciphertext array
(** A copy of the current slot vector — what a bus-hosted DC submits
    over the wire (ciphertexts only, never items). *)

val load_slots : t -> Crypto.Elgamal.ciphertext array -> unit
(** Overwrite the slots with a checkpointed vector of the same size;
    raises [Invalid_argument] on a length mismatch. *)

val combine : t list -> Crypto.Elgamal.ciphertext array
(** Slot-wise homomorphic OR across DCs: the encrypted union. *)

val combine_vectors :
  Crypto.Elgamal.ciphertext array list -> Crypto.Elgamal.ciphertext array
(** {!combine} over already-extracted slot vectors (the form an
    aggregator holds after receiving table submissions as messages). *)
