(* xoshiro256** (Blackman & Vigna 2018): the workhorse generator for the
   simulator. 256 bits of state, period 2^256 - 1, passes BigCrush. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let of_seed seed =
  match Splitmix64.expand seed 4 with
  | [| s0; s1; s2; s3 |] -> { s0; s1; s2; s3 }
  | _ -> assert false

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let u = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 u;
  t.s3 <- rotl t.s3 45;
  result
