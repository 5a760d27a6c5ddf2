type t =
  | Ts
  | Dc of int
  | Sk of int
  | Cp of int

let equal a b =
  match (a, b) with
  | Ts, Ts -> true
  | Dc i, Dc j | Sk i, Sk j | Cp i, Cp j -> i = j
  | _ -> false

let rank = function Ts -> 0 | Dc _ -> 1 | Sk _ -> 2 | Cp _ -> 3
let index = function Ts -> 0 | Dc i | Sk i | Cp i -> i

let to_string = function
  | Ts -> "ts"
  | Dc i -> Printf.sprintf "dc%d" i
  | Sk i -> Printf.sprintf "sk%d" i
  | Cp i -> Printf.sprintf "cp%d" i

let write w p =
  Codec.W.u8 w (rank p);
  Codec.W.varint w (index p)

let read r =
  let tag = Codec.R.u8 r in
  let i = Codec.R.varint r in
  match tag with
  | 0 -> Ts
  | 1 -> Dc i
  | 2 -> Sk i
  | 3 -> Cp i
  | n -> Codec.R.fail (Printf.sprintf "party tag %d" n)
