(* HMAC-SHA256 over SHA-256's word-level compressions. A key is kept as
   the two midstates after its ipad and opad blocks, so a message costs
   the compressions of its own blocks plus one for the outer hash; the
   two key blocks are paid once per key, or once per [rekey]. *)

let block_size = 64
let ipad = 0x36363636
let opad = 0x5c5c5c5c

type keyed = {
  ki : int array; (* midstate after the block key xor ipad *)
  ko : int array; (* midstate after the block key xor opad *)
}

(* One 16-word block of scratch per domain, like SHA-256's schedule: a
   MAC runs to completion on the domain that started it, so pool
   workers sharing one key each lay out their own blocks. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make 16 0)

(* Both midstates of the key whose zero-padded 64-byte block is [m]'s
   16 words. Clobbers [m]. *)
let set_key k m =
  for i = 0 to 15 do
    m.(i) <- m.(i) lxor ipad
  done;
  Sha256.set_iv k.ki;
  Sha256.compress_words k.ki m;
  for i = 0 to 15 do
    m.(i) <- m.(i) lxor (ipad lxor opad)
  done;
  Sha256.set_iv k.ko;
  Sha256.compress_words k.ko m

let keyed key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let block = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 block 0 (String.length key);
  let m = Domain.DLS.get scratch in
  for i = 0 to 15 do
    m.(i) <- Int32.to_int (Bytes.get_int32_be block (4 * i)) land 0xffffffff
  done;
  let k = { ki = Array.make 8 0; ko = Array.make 8 0 } in
  set_key k m;
  k

let rekey k key =
  let m = Domain.DLS.get scratch in
  Array.blit key 0 m 0 8;
  Array.fill m 8 8 0;
  set_key k m

(* The outer hash: [out] holds the inner digest on entry and the MAC on
   return; the digest is one padded block after the opad key block. *)
let outer k m out =
  Array.blit out 0 m 0 8;
  Sha256.pad_words m ~len:32 ~total:(block_size + 32);
  Array.blit k.ko 0 out 0 8;
  Sha256.compress_words out m

let mac k msg out =
  let ctx = Sha256.resume k.ki ~total:block_size in
  Sha256.update ctx msg;
  Sha256.load_words (Sha256.finalize ctx) out 0;
  outer k (Domain.DLS.get scratch) out

let mac_words k msg ~len out =
  if len < 0 || len > 55 then invalid_arg "Hmac.mac_words: len must be in [0, 55]";
  let m = Domain.DLS.get scratch in
  Array.blit msg 0 m 0 ((len + 3) / 4);
  Sha256.pad_words m ~len ~total:(block_size + len);
  Array.blit k.ki 0 out 0 8;
  Sha256.compress_words out m;
  outer k m out
