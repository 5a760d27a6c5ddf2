type error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Trailing of int
  | Invalid of string

let error_to_string = function
  | Truncated -> "truncated input"
  | Bad_magic -> "bad magic"
  | Unsupported_version v -> Printf.sprintf "unsupported version %d" v
  | Trailing n -> Printf.sprintf "%d trailing bytes" n
  | Invalid msg -> Printf.sprintf "invalid: %s" msg

(* Internal control flow for readers; both are caught in [decode] and
   never cross the API boundary. *)
exception Short
exception Fail of string
exception Version of int

(* LEB128 over the 63 bits of [v], read as unsigned. Top-level so a
   call allocates no closure (this compiler has no flambda, and a local
   [let rec] capturing the buffer would cost one per varint). *)
let rec leb b v =
  if v land -0x80 = 0 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    leb b (v lsr 7)
  end

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

  let varint b v =
    if v < 0 then invalid_arg "Codec.W.varint: negative";
    leb b v

  (* the zigzag image of a 63-bit int fills all 63 bits, so it goes to
     [leb] unchecked: [min_int] and [max_int] round-trip *)
  let zint b v = leb b ((v lsl 1) lxor (v asr 62))
  let f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

  let bytes b s =
    varint b (String.length s);
    Buffer.add_string b s

  let magic b s = Buffer.add_string b s
  let contents b = Buffer.contents b
end

module R = struct
  type t = { src : string; mutable pos : int }

  let[@inline] u8 r =
    let p = r.pos in
    if p >= String.length r.src then raise Short;
    r.pos <- p + 1;
    Char.code (String.unsafe_get r.src p)

  (* Continuation bytes of a varint. Top-level and taking [r] as an
     argument so the call allocates nothing. OCaml ints are 63-bit;
     more than nine 7-bit groups cannot be a value we wrote, so treat it
     as malformed rather than overflow. *)
  let rec varint_from r acc shift =
    if shift > 62 then raise (Fail "varint overflow");
    let byte = u8 r in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc else varint_from r acc (shift + 7)

  let[@inline] varint r =
    let byte = u8 r in
    if byte land 0x80 = 0 then byte else varint_from r (byte land 0x7f) 7

  let[@inline] zint r =
    let v = varint r in
    (v lsr 1) lxor (-(v land 1))

  let[@inline] f64 r =
    let p = r.pos in
    if p + 8 > String.length r.src then raise Short;
    r.pos <- p + 8;
    Int64.float_of_bits (String.get_int64_be r.src p)

  type f64_cell = { mutable value : float }

  let f64_into r cell = cell.value <- f64 r

  let bytes r =
    let n = varint r in
    if n < 0 || r.pos + n > String.length r.src then raise Short;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let magic r expect =
    let n = String.length expect in
    if r.pos + n > String.length r.src then raise Short;
    if String.sub r.src r.pos n <> expect then raise (Fail "magic");
    r.pos <- r.pos + n

  let fail msg = raise (Fail msg)
  let fail_version v = raise (Version v)
  let[@inline] remaining r = String.length r.src - r.pos

  let count ?(width = 1) r =
    let n = varint r in
    if n < 0 then raise (Fail "negative count");
    if n > remaining r / width then raise Short;
    n
end

let decode src reader =
  let r = { R.src; pos = 0 } in
  match reader r with
  | v ->
      let rest = R.remaining r in
      if rest = 0 then Ok v else Error (Trailing rest)
  | exception Short -> Error Truncated
  | exception Fail "magic" -> Error Bad_magic
  | exception Fail msg -> Error (Invalid msg)
  | exception Version v -> Error (Unsupported_version v)
