(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256, held in words. The key
   K is kept as the two SHA-256 midstates after its ipad and opad
   blocks, and V as 8 words, so every HMAC after instantiation is two
   compressions over one laid-out block each: no context copy, digest
   string or blit per block. Costs, in compressions:

   - a generate block (32 bytes): 2, V = HMAC(K, V);
   - the post-generate update: 6, K = HMAC(K, V || 0x00) (2), the
     rekey to K's two midstates (2), V = HMAC(K, V) (2).

   So a [uniform] call spends 8 compressions on 8 bytes, and a bulk
   draw of [count] 4-byte lanes spends 2 * ceil(count / 8) + 6.
   Output is byte-identical to the byte formulation over [Hmac] (locked
   by the SP 800-90A known answer and a reference-DRBG property in the
   crypto tests). *)

type t = {
  ki : int array; (* midstate after the block K xor ipad *)
  ko : int array; (* midstate after the block K xor opad *)
  v : int array; (* V, 8 words *)
  k : int array; (* scratch: the next K during an update *)
  h : int array; (* scratch: an inner digest *)
  m : int array; (* scratch: one 16-word block *)
}

(* [out] <- HMAC(K, V), or HMAC(K, V || 0x00) when [sep]. Either
   message fits the one block after the 64-byte key block: V in words
   0-7, then the separator byte in the top of word 8. The outer hash
   lays out the inner digest the same way. [out] may be [t.v]. *)
let mac t ~sep out =
  let m = t.m and h = t.h in
  Array.blit t.v 0 m 0 8;
  m.(8) <- 0;
  let len = if sep then 33 else 32 in
  Sha256.pad_words m ~len ~total:(64 + len);
  Array.blit t.ki 0 h 0 8;
  Sha256.compress_words h m;
  Array.blit h 0 m 0 8;
  Sha256.pad_words m ~len:32 ~total:96;
  Array.blit t.ko 0 out 0 8;
  Sha256.compress_words out m

let pad_key t key fill dst =
  let m = t.m in
  for i = 0 to 7 do
    m.(i) <- key.(i) lxor fill
  done;
  Array.fill m 8 8 fill;
  Sha256.set_iv dst;
  Sha256.compress_words dst m

let rekey t key =
  pad_key t key 0x36363636 t.ki;
  pad_key t key 0x5c5c5c5c t.ko

(* The update with no provided data, run after every generate. *)
let refresh t =
  mac t ~sep:true t.k;
  rekey t t.k;
  mac t ~sep:false t.v

(* Instantiation is the one update with provided data (seed and
   personalization of any length), so it runs once over [Hmac]'s byte
   path; the words take over from there. *)
let create ?(personalization = "") seed =
  let provided = seed ^ personalization in
  let mac key msg = Hmac.sha256_keyed (Hmac.keyed key) msg in
  let step (key, v) sep =
    let key = mac key (v ^ sep ^ provided) in
    (key, mac key v)
  in
  let kv = step (String.make 32 '\x00', String.make 32 '\x01') "\x00" in
  let key, v = if provided = "" then kv else step kv "\x01" in
  let z () = Array.make 8 0 in
  let t = { ki = z (); ko = z (); v = z (); k = z (); h = z (); m = Array.make 16 0 } in
  Sha256.load_words v t.v 0;
  Sha256.load_words key t.k 0;
  rekey t t.k;
  t

let generate t n =
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    mac t ~sep:false t.v;
    for i = 0 to 7 do
      let p = !pos + (4 * i) and w = t.v.(i) in
      if p + 4 <= n then Bytes.set_int32_be out p (Int32.of_int w)
      else
        for j = 0 to n - p - 1 do
          Bytes.set out (p + j) (Char.unsafe_chr ((w lsr (24 - (8 * j))) land 0xff))
        done
    done;
    pos := !pos + 32
  done;
  refresh t;
  Bytes.unsafe_to_string out

(* Lanes read straight from V's words: a 4-byte lane is one word, an
   8-byte lane the top 62 bits of two, as a non-negative int. *)
let lane62 v i = (v.(i) lsl 30) lor (v.(i + 1) lsr 2)

let two30 = 1 lsl 30
let two32 = 1 lsl 32

(* Rejection limits: the largest accepted draw below 2^62 (wide) or
   2^32 (narrow) that keeps [v mod n] unbiased; the space size 2^62
   itself is not representable. *)
let wide_limit n = max_int - (((max_int mod n) + 1) mod n)
let narrow_limit n = two32 - 1 - (two32 mod n)

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform: n must be positive";
  let limit = wide_limit n in
  let rec draw () =
    mac t ~sep:false t.v;
    let v = lane62 t.v 0 in
    refresh t;
    if v <= limit then v mod n else draw ()
  in
  draw ()

(* Bulk draws. One generate of [count] lanes pays the post-generate
   update once, so 4-byte lanes cost 1/4 compression each against 8
   for a [uniform] call (1/32nd), and 8-byte lanes 1/2 (1/16th).

   Lanes are 4 bytes when every bound fits 30 bits (all protocol
   bounds: q < 2^30, permutation indices, coin flips) and 8 bytes
   otherwise. Rejection sampling still makes each lane exactly
   uniform; a rejected lane falls back to fresh single draws, which
   keeps the stream consumption deterministic for a fixed seed. Bulk
   draws consume the stream differently from the same number of
   [uniform] calls — callers pick one pattern per draw site and keep
   it (the determinism contract is about program order, not byte
   equivalence; see DESIGN.md §3c). *)

(* [count] >= 1 raw lanes from one generate, in stream order. *)
let raw_lanes t ~wide count =
  let out = Array.make count 0 in
  let per_block = if wide then 4 else 8 in
  let i = ref 0 in
  while !i < count do
    mac t ~sep:false t.v;
    for j = 0 to min per_block (count - !i) - 1 do
      out.(!i + j) <- (if wide then lane62 t.v (2 * j) else t.v.(j))
    done;
    i := !i + per_block
  done;
  refresh t;
  out

let uniform_lanes t bound count =
  if count < 0 then invalid_arg "Drbg.uniform_lanes: negative count";
  if count = 0 then [||]
  else begin
    let wide = ref false in
    for i = 0 to count - 1 do
      let n = bound i in
      if n <= 0 then invalid_arg "Drbg.uniform_lanes: bound must be positive";
      if n > two30 then wide := true
    done;
    let wide = !wide in
    let out = raw_lanes t ~wide count in
    for i = 0 to count - 1 do
      let n = bound i in
      let limit = if wide then wide_limit n else narrow_limit n in
      let v = out.(i) in
      out.(i) <- (if v <= limit then v mod n else uniform t n)
    done;
    out
  end

let uniform_array t n count =
  if n <= 0 then invalid_arg "Drbg.uniform_array: n must be positive";
  if count < 0 then invalid_arg "Drbg.uniform_array: negative count";
  if count = 0 then [||]
  else begin
    let wide = n > two30 in
    let out = raw_lanes t ~wide count in
    let limit = if wide then wide_limit n else narrow_limit n in
    for i = 0 to count - 1 do
      let v = out.(i) in
      out.(i) <- (if v <= limit then v mod n else uniform t n)
    done;
    out
  end
