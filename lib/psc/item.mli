(** Item-to-slot mapping for the oblivious counter tables. The round
    key is distributed by the TS so all DCs agree — that agreement is
    what makes slot-wise combination a set *union*. *)

val slot : key:Crypto.Hmac.keyed -> table_size:int -> string -> int
(** Keyed-hash slot of an item, in [0, table_size): the first 8 bytes
    of HMAC-SHA256 under the prepared round key. *)
