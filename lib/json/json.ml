(* The one JSON codec (see json.mli). Dependency-free, so every library
   that reads or writes JSON (lib/obs, lib/lint) can share it. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int n = Num (float_of_int n)

(* --- writing --- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (if Float.is_finite v then float_to_string v else "null")
  | Str s -> add_string b s
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        write b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- reading --- *)

let max_depth = 512

exception Bad of int * string

let add_utf8 b u =
  let byte x = Buffer.add_char b (Char.chr x) in
  if u < 0x80 then byte u
  else if u < 0x800 then begin
    byte (0xC0 lor (u lsr 6));
    byte (0x80 lor (u land 0x3F))
  end
  else if u < 0x10000 then begin
    byte (0xE0 lor (u lsr 12));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end
  else begin
    byte (0xF0 lor (u lsr 18));
    byte (0x80 lor ((u lsr 12) land 0x3F));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    if !pos < n && text.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = 0 to 3 do
      let d =
        match text.[!pos + i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let escape b =
    if !pos >= n then fail "unterminated escape";
    let e = text.[!pos] in
    incr pos;
    match e with
    | '"' | '\\' | '/' -> Buffer.add_char b e
    | 'b' -> Buffer.add_char b '\b'
    | 'f' -> Buffer.add_char b '\012'
    | 'n' -> Buffer.add_char b '\n'
    | 'r' -> Buffer.add_char b '\r'
    | 't' -> Buffer.add_char b '\t'
    | 'u' ->
      let u = hex4 () in
      if u >= 0xD800 && u <= 0xDBFF then begin
        if not (!pos + 1 < n && text.[!pos] = '\\' && text.[!pos + 1] = 'u') then
          fail "unpaired surrogate";
        pos := !pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
        add_utf8 b (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
      end
      else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
      else add_utf8 b u
    | _ -> fail "bad escape"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        escape b;
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let s = !pos in
      while !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = s then fail "bad number"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | 'e' | 'E' ->
      incr pos;
      (match peek () with '+' | '-' -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    let v = float_of_string (String.sub text start (!pos - start)) in
    if Float.is_finite v then Num v else fail "number out of range"
  in
  let rec value depth =
    ws ();
    if !pos >= n then fail "unexpected end of input";
    match text.[!pos] with
    | '"' -> Str (string ())
    | '{' ->
      let fields = List.rev (container depth '}' (field depth)) in
      (* sorted once, so a hostile object with many keys costs n log n *)
      let rec has_dup = function
        | a :: (b :: _ as rest) -> String.equal a b || has_dup rest
        | [ _ ] | [] -> false
      in
      if has_dup (List.sort String.compare (List.map fst fields)) then fail "duplicate key";
      Obj fields
    | '[' -> Arr (List.rev (container depth ']' (fun acc -> value (depth + 1) :: acc)))
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  (* an array or object: [item] parses one element onto the reversed
     accumulator, [close] is the closing bracket *)
  and container : 'a. int -> char -> ('a list -> 'a list) -> 'a list =
   fun depth close item ->
    if depth >= max_depth then fail "nesting too deep";
    incr pos;
    ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item acc in
        ws ();
        if peek () = ',' then begin
          incr pos;
          go acc
        end
        else begin
          expect close;
          acc
        end
      in
      go []
  and field depth acc =
    ws ();
    let k = string () in
    ws ();
    expect ':';
    (k, value (depth + 1)) :: acc
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing bytes after value";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
