(* FIPS 180-4 SHA-256. Words are kept in OCaml ints (63-bit) masked to 32
   bits, which avoids Int32 boxing in the compression loop. *)

let mask = 0xFFFFFFFF

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

type ctx = {
  h : int array;                  (* 8 hash words *)
  buf : Bytes.t;                  (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;            (* total bytes absorbed *)
  mutable finished : bool;
}

let iv = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let resume h ~total =
  if total < 0 || total mod 64 <> 0 then
    invalid_arg "Sha256.resume: total must be a multiple of 64";
  { h = Array.copy h; buf = Bytes.create 64; buf_len = 0; total; finished = false }

let init () = resume iv ~total:0

(* Independent snapshot of a context: a running hash whose digest is
   read without ending it. *)
let copy ctx = { ctx with h = Array.copy ctx.h; buf = Bytes.copy ctx.buf }

(* Message-schedule scratch, one array per domain: a compression runs to
   completion on the domain that started it and never yields, so pool
   workers hashing concurrently each fill their own schedule. Keeping it
   out of [ctx] saves 66 words per context (one per byte-path HMAC). *)
let schedule = Domain.DLS.new_key (fun () -> Array.make 64 0)

(* Rotations from a doubled word: for a 32-bit [x], the 63-bit int
   [x lor (x lsl 32)] holds [rotr x n] in bits [0, 32) of [d lsr n] for
   every 0 <= n <= 31 (bit 31 of [x] falls off the top of [x lsl 32],
   and is first needed at n = 32). Each sigma xors three shifts of one
   doubled word and leaves garbage above bit 31; that is harmless
   because every sigma feeds a sum whose low 32 bits depend only on the
   low 32 bits of its terms, and each sum is masked before it is stored
   or doubled again. The one kernel: [w.(0..15)] holds the block's
   words on entry. *)
let compress_schedule h w =
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let de = !e lor (!e lsl 32) and da = !a lor (!a lsl 32) in
    let s1 = (de lsr 6) lxor (de lsr 11) lxor (de lsr 25) in
    let ch = !g lxor (!e land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = (da lsr 2) lxor (da lsr 13) lxor (da lsr 22) in
    let maj = (!a land (!b lor !c)) lor (!b land !c) in
    hh := !g; g := !f; f := !e;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let compress h block off =
  let w = Domain.DLS.get schedule in
  for t = 0 to 15 do
    Array.unsafe_set w t (Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask)
  done;
  compress_schedule h w

let compress_words h m =
  let w = Domain.DLS.get schedule in
  Array.blit m 0 w 0 16;
  compress_schedule h w

let set_iv h = Array.blit iv 0 h 0 8

(* Word-level form of [finalize]'s padding, for a last block that has
   room for it: the 0x80 marker right after the [len] message bytes
   (keeping the bytes of a partly filled word), zeros, and the 64-bit
   bit length of all [total] bytes in words 14 and 15. *)
let pad_words m ~len ~total =
  if len < 0 || len > 55 then invalid_arg "Sha256.pad_words: len must be in [0, 55]";
  let i = len / 4 and r = len mod 4 in
  let kept = if r = 0 then 0 else m.(i) land (mask lxor ((1 lsl (32 - (8 * r))) - 1)) in
  m.(i) <- kept lor (0x80 lsl (24 - (8 * r)));
  for j = i + 1 to 13 do
    m.(j) <- 0
  done;
  let bits = total * 8 in
  m.(14) <- (bits lsr 32) land mask;
  m.(15) <- bits land mask

let load_words s dst at =
  for i = 0 to 7 do
    dst.(at + i) <- Int32.to_int (String.get_int32_be s (4 * i)) land mask
  done

let update ctx s =
  if ctx.finished then invalid_arg "Sha256.update: context already finalized";
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks straight from the input. *)
  let tmp = Bytes.unsafe_of_string s in
  while len - !pos >= 64 do
    compress ctx.h tmp !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

(* Four big-endian bytes straight into the block buffer: one store when
   the word fits, byte by byte (compressing mid-field) when it
   straddles a block boundary. *)
let update_int32_be ctx v =
  if ctx.finished then invalid_arg "Sha256.update: context already finalized";
  ctx.total <- ctx.total + 4;
  if ctx.buf_len <= 60 then begin
    Bytes.set_int32_be ctx.buf ctx.buf_len (Int32.of_int v);
    ctx.buf_len <- ctx.buf_len + 4;
    if ctx.buf_len = 64 then begin
      compress ctx.h ctx.buf 0;
      ctx.buf_len <- 0
    end
  end
  else
    for i = 0 to 3 do
      Bytes.unsafe_set ctx.buf ctx.buf_len (Char.unsafe_chr ((v lsr (24 - (8 * i))) land 0xff));
      ctx.buf_len <- ctx.buf_len + 1;
      if ctx.buf_len = 64 then begin
        compress ctx.h ctx.buf 0;
        ctx.buf_len <- 0
      end
    done

(* Pads in place in the block buffer: the 0x80 marker, zeros, and the
   64-bit big-endian bit length in the last eight bytes — spilling into
   one extra block when fewer than nine bytes are free. *)
let finalize ctx =
  if ctx.finished then invalid_arg "Sha256.finalize: context already finalized";
  ctx.finished <- true;
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  if n >= 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\x00';
    compress ctx.h buf 0;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx.h buf 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let c = Char.code c in
      Bytes.unsafe_set out (2 * i) (String.unsafe_get hex_digits (c lsr 4));
      Bytes.unsafe_set out ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15)))
    s;
  Bytes.unsafe_to_string out

let hex s = to_hex (digest s)
