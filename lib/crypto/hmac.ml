let block_size = 64

(* Precomputed key state: the SHA-256 midstates after absorbing the
   ipad- and opad-masked key blocks. Computing HMAC from a [keyed]
   costs two compressions (message + wrapped digest) instead of four;
   HMAC-DRBG reuses each key for several calls, so the two key-block
   compressions amortise away. *)
type keyed = { inner : Sha256.ctx; outer : Sha256.ctx }

let keyed key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad fill =
    Bytes.unsafe_to_string
      (Bytes.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor fill)))
  in
  let inner = Sha256.init () in
  Sha256.update inner (pad 0x36);
  let outer = Sha256.init () in
  Sha256.update outer (pad 0x5c);
  { inner; outer }

let sha256_keyed k msg =
  let ictx = Sha256.copy k.inner in
  Sha256.update ictx msg;
  let octx = Sha256.copy k.outer in
  Sha256.update octx (Sha256.finalize ictx);
  Sha256.finalize octx
