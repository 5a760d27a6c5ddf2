(* PSC items are opaque strings (an IP, a second-level domain, an onion
   address, a country code). Items are mapped to table slots with a
   keyed hash; the round key is distributed by the TS so every DC maps
   identical items to identical slots — that is what makes slot-wise
   combination compute a set *union*. The key arrives prepared
   ([Crypto.Hmac.keyed], once per table), so a slot costs the two
   compressions of the message, not the four of re-keying per item. *)

let slot ~key ~table_size item =
  if table_size <= 0 then invalid_arg "Item.slot: table_size must be positive";
  let digest = Crypto.Hmac.sha256_keyed key item in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code digest.[i]
  done;
  (!v land max_int) mod table_size
