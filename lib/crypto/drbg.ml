(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256. K is an [Hmac.keyed],
   rekeyed in place, and V is 8 words, so every HMAC after
   instantiation is a one-block [Hmac.mac_words]: two compressions, no
   context, digest string or blit. Costs, in compressions:

   - instantiation: 2 for the all-zero K, then per update step the
     byte-path MAC of V || sep || seed || personalization (2 while seed
     and personalization fit the block with V || sep, 22 bytes), the
     rekey to the new K (2) and V = HMAC(K, V) (2): 14 over two steps,
     8 when seed and personalization are both empty (one step);
   - a generate block (32 bytes): 2, V = HMAC(K, V);
   - the post-generate update: 6, K = HMAC(K, V || 0x00) (2), the
     rekey (2), V = HMAC(K, V) (2).

   So a [uniform] call spends 8 compressions on 8 bytes, and a bulk
   draw of [count] 4-byte lanes spends 2 * ceil(count / 8) + 6.
   Output equals the byte formulation of SP 800-90A (locked by the
   SP 800-90A known answer and a reference-DRBG property in the crypto
   tests). *)

type t = {
  key : Hmac.keyed; (* K *)
  v : int array; (* V in words 0-7; word 8 stays 0, so V || 0x00 is its first 33 bytes *)
  k : int array; (* scratch: the next K during an update *)
}

(* Byte [i] of the big-endian words [w]. *)
let byte w i = (w.(i / 4) lsr (24 - (8 * (i land 3)))) land 0xff

(* The update with no provided data, run after every generate. *)
let refresh t =
  Hmac.mac_words t.key t.v ~len:33 t.k;
  Hmac.rekey t.key t.k;
  Hmac.mac_words t.key t.v ~len:32 t.v

(* Instantiation: the update with provided data (seed and
   personalization, of any length), over the byte path. Each step ends
   with K's midstates in [t.key], which generation goes on from. *)
let create ?(personalization = "") seed =
  let provided = seed ^ personalization in
  let t = { key = Hmac.keyed (String.make 32 '\x00'); v = Array.make 9 0; k = Array.make 8 0 } in
  Array.fill t.v 0 8 0x01010101;
  let step sep =
    let v = String.init 32 (fun i -> Char.unsafe_chr (byte t.v i)) in
    Hmac.mac t.key (v ^ sep ^ provided) t.k;
    Hmac.rekey t.key t.k;
    Hmac.mac_words t.key t.v ~len:32 t.v
  in
  step "\x00";
  if provided <> "" then step "\x01";
  t

let generate t n =
  let out = Bytes.create n in
  for j = 0 to n - 1 do
    if j mod 32 = 0 then Hmac.mac_words t.key t.v ~len:32 t.v;
    Bytes.set out j (Char.unsafe_chr (byte t.v (j mod 32)))
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
    Hmac.mac_words t.key t.v ~len:32 t.v;
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
    Hmac.mac_words t.key t.v ~len:32 t.v;
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
