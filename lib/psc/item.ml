(* PSC items are opaque strings (an IP, a second-level domain, an onion
   address, a country code). Items are mapped to table slots with a
   keyed hash; the round key is distributed by the TS so every DC maps
   identical items to identical slots — that is what makes slot-wise
   combination compute a set *union*. The key arrives prepared
   ([Crypto.Hmac.keyed], once per table), so a slot costs the
   compressions of the message and the outer hash, not two more for
   re-keying per item. *)

let slot ~key ~table_size item =
  if table_size <= 0 then invalid_arg "Item.slot: table_size must be positive";
  let mac = Array.make 8 0 in
  Crypto.Hmac.mac key item mac;
  (* the MAC's first 8 bytes, top two bits dropped *)
  (((mac.(0) lsl 32) lor mac.(1)) land max_int) mod table_size
