(* HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA256. The key is held as a
   precomputed [Hmac.keyed] midstate: each key serves several HMAC calls
   before the next rekey, so caching the ipad/opad block compressions
   drops a DRBG draw from 12 SHA-256 compressions to 8. Output is
   byte-identical to the naive formulation (locked by the RFC 4231 and
   determinism test vectors). *)

type t = { mutable key : Hmac.keyed; mutable v : string }

let rekey t material = t.key <- Hmac.keyed (Hmac.sha256_keyed t.key material)

let update t provided =
  rekey t (t.v ^ "\x00" ^ provided);
  t.v <- Hmac.sha256_keyed t.key t.v;
  if provided <> "" then begin
    rekey t (t.v ^ "\x01" ^ provided);
    t.v <- Hmac.sha256_keyed t.key t.v
  end

let create ?(personalization = "") seed =
  let t = { key = Hmac.keyed (String.make 32 '\x00'); v = String.make 32 '\x01' } in
  update t (seed ^ personalization);
  t

let generate t n =
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    t.v <- Hmac.sha256_keyed t.key t.v;
    let take = min (String.length t.v) (n - !pos) in
    Bytes.blit_string t.v 0 out !pos take;
    pos := !pos + take
  done;
  update t "";
  Bytes.unsafe_to_string out

(* Top 62 bits of the 8-byte big-endian lane at [off], as a
   non-negative int, without Int64 boxing. *)
let lane62 s off =
  let byte i = Char.code (String.unsafe_get s (off + i)) in
  let hi = ref 0 in
  for i = 0 to 6 do
    hi := (!hi lsl 8) lor byte i
  done;
  (!hi lsl 6) lor (byte 7 lsr 2)

let uniform t n =
  if n <= 0 then invalid_arg "Drbg.uniform: n must be positive";
  (* Rejection sampling on 62-bit draws ([0, max_int]) to avoid modulo
     bias; the space size 2^62 itself is not representable. *)
  let rem = ((max_int mod n) + 1) mod n in
  let limit = max_int - rem in
  let rec draw () =
    let v = lane62 (generate t 8) 0 in
    if v <= limit then v mod n else draw ()
  in
  draw ()

(* Bulk draws. One [generate] call per HMAC output block yields 16
   bytes of stream per SHA-256 compression; a [uniform] call spends
   ~8 compressions for the same 8 bytes because every call pays the
   post-generate state update. Batching [count] draws into a single
   [generate] therefore costs ~1/16th the hashing of [count] singles.

   Lanes are 4 bytes when every bound fits 30 bits (all protocol
   bounds: q < 2^30, permutation indices, coin flips) and 8 bytes
   otherwise. Rejection sampling still makes each lane exactly
   uniform; a rejected lane falls back to fresh single draws, which
   keeps the stream consumption deterministic for a fixed seed. Bulk
   draws consume the stream differently from the same number of
   [uniform] calls — callers pick one pattern per draw site and keep
   it (the determinism contract is about program order, not byte
   equivalence; see DESIGN.md §3c). *)

let lane32 s off =
  let byte i = Char.code (String.unsafe_get s (off + i)) in
  (((((byte 0 lsl 8) lor byte 1) lsl 8) lor byte 2) lsl 8) lor byte 3

let two30 = 1 lsl 30
let two32 = 1 lsl 32

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
    let lane_bytes = if !wide then 8 else 4 in
    let s = generate t (lane_bytes * count) in
    let out = Array.make count 0 in
    for i = 0 to count - 1 do
      let n = bound i in
      let v, limit =
        if !wide then (lane62 s (8 * i), max_int - (((max_int mod n) + 1) mod n))
        else (lane32 s (4 * i), two32 - 1 - (two32 mod n))
      in
      out.(i) <- (if v <= limit then v mod n else uniform t n)
    done;
    out
  end

let uniform_array t n count =
  if n <= 0 then invalid_arg "Drbg.uniform_array: n must be positive";
  if count < 0 then invalid_arg "Drbg.uniform_array: negative count";
  if count = 0 then [||]
  else begin
    let narrow = n <= two30 in
    let lane_bytes = if narrow then 4 else 8 in
    let s = generate t (lane_bytes * count) in
    let limit =
      if narrow then two32 - 1 - (two32 mod n)
      else max_int - (((max_int mod n) + 1) mod n)
    in
    let out = Array.make count 0 in
    for i = 0 to count - 1 do
      let v = if narrow then lane32 s (4 * i) else lane62 s (8 * i) in
      out.(i) <- (if v <= limit then v mod n else uniform t n)
    done;
    out
  end
