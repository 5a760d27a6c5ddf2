type t = Xoshiro.t

let create seed = Xoshiro.of_seed (Int64.of_int seed)
let split = Xoshiro.split
let copy = Xoshiro.copy
let int64 = Xoshiro.next

let bits t = Int64.to_int (Int64.shift_right_logical (Xoshiro.next t) 2)

let below t n =
  if n <= 0 then invalid_arg "Rng.below: n must be positive";
  (* Rejection sampling over 62-bit words to avoid modulo bias. The
     sample space is [0, max_int] = [0, 2^62); its size 2^62 is not
     representable, so the acceptance bound is phrased via max_int. *)
  let rem = ((max_int mod n) + 1) mod n in
  let limit = max_int - rem in
  let rec draw () =
    let v = bits t in
    if v <= limit then v mod n else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + below t (hi - lo + 1)

let float t =
  (* 53 uniform bits into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (Xoshiro.next t) 11) in
  float_of_int v *. 0x1.0p-53

let float_pos t = 1.0 -. float t
let bool t = Int64.logand (Xoshiro.next t) 1L = 1L
let bernoulli t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(below t (Array.length a))
