(* Safe-prime Schnorr group found deterministically (largest safe prime
   below 2^31); see DESIGN.md for why a simulation-scale group is used. *)

type elt = int
type exp = int

let p = 2147483579
let q = 1073741789 (* (p - 1) / 2, prime *)

(* Division-free reduction. p = 2^31 - 69 and q = 2^30 - 35 are both
   of the form 2^k - c for tiny c, so x mod p folds the high bits down
   as x = hi*2^31 + lo == 69*hi + lo (mod p). For x < 2^62 one fold
   leaves < 70*2^31 < 2^38, a second leaves < 69*2^7 + 2^31 < p + 8901,
   and a single conditional subtract finishes. This replaces the
   hardware divide in every modular multiplication (~20-40 cycles) with
   shifts and adds, and is exact: the startup self-check below asserts
   agreement with [mod] on the extreme products. *)
let[@inline] reduce_p x =
  let x = ((x lsr 31) * 69) + (x land 0x7FFFFFFF) in
  let x = ((x lsr 31) * 69) + (x land 0x7FFFFFFF) in
  if x >= p then x - p else x

(* Same shape for q = 2^30 - 35: valid for x < 2^60, which covers any
   product of reduced exponents. *)
let[@inline] reduce_q x =
  let x = ((x lsr 30) * 35) + (x land 0x3FFFFFFF) in
  let x = ((x lsr 30) * 35) + (x land 0x3FFFFFFF) in
  if x >= q then x - q else x

(* Internal modular exponentiation with an arbitrary non-negative
   exponent (inverses need exponent p - 2, which is not reduced mod q). *)
let powmod b e m =
  let rec go b e acc =
    if e = 0 then acc
    else
      go (b * b mod m) (e lsr 1) (if e land 1 = 1 then acc * b mod m else acc)
  in
  go (b mod m) e 1

(* Startup self-check: p and q prime (deterministic Miller–Rabin bases
   valid for 64-bit inputs), g generates the order-q subgroup. *)
let () =
  let is_sprp n a =
    if n mod a = 0 then n = a
    else begin
      let d = ref (n - 1) and r = ref 0 in
      while !d land 1 = 0 do
        d := !d lsr 1;
        incr r
      done;
      let x = powmod a !d n in
      if x = 1 || x = n - 1 then true
      else begin
        let x = ref x and ok = ref false in
        for _ = 1 to !r - 1 do
          x := !x * !x mod n;
          if !x = n - 1 then ok := true
        done;
        !ok
      end
    end
  in
  let is_prime n = List.for_all (is_sprp n) [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ] in
  assert (p = (2 * q) + 1);
  assert (is_prime p);
  assert (is_prime q);
  (* the special-form reductions agree with [mod] at the extremes of
     their input ranges (largest products, fold boundaries) *)
  List.iter
    (fun x -> assert (reduce_p x = x mod p))
    [ 0; 1; p - 1; p; p + 1; (p - 1) * (p - 1); max_int lsr 1; (1 lsl 31) - 1; 1 lsl 31 ];
  List.iter
    (fun x -> assert (reduce_q x = x mod q))
    [ 0; 1; q - 1; q; q + 1; (q - 1) * (q - 1); (1 lsl 60) - 1; (1 lsl 30) - 1; 1 lsl 30 ]

let g = 4 (* 2^2: a quadratic residue, hence a generator of the order-q subgroup *)
let one = 1
let zero_exp = 0
let one_exp = 1

(* Square-and-multiply over the fast reduction; exponent any
   non-negative int (inverses use p - 2, which exceeds q). *)
let pow_int b e =
  let b = ref b and e = ref e and acc = ref 1 in
  while !e > 0 do
    if !e land 1 = 1 then acc := reduce_p (!acc * !b);
    b := reduce_p (!b * !b);
    e := !e lsr 1
  done;
  !acc

let pow_q_int b e =
  let b = ref b and e = ref e and acc = ref 1 in
  while !e > 0 do
    if !e land 1 = 1 then acc := reduce_q (!acc * !b);
    b := reduce_q (!b * !b);
    e := !e lsr 1
  done;
  !acc

(* Four-lane kernels. A modular squaring waits on the one before it, so
   one exponentiation leaves the multiplier idle most of the time;
   four independent chains written out side by side overlap in the
   pipeline and raise throughput 2-3x (DESIGN.md §3c). *)

let[@inline] sqr x = reduce_p (x * x)
let[@inline] mulp a b = reduce_p (a * b)

(* Membership is Euler's criterion, x^q = 1, over a fixed addition
   chain for q = (2^24 - 1) * 2^6 + 15 + 12 + 2: x^2, x^3, x^12 and
   x^15, then x^255, x^(2^16 - 1) and x^(2^24 - 1) by repeated
   squaring, six more squarings, and x^15 * x^12 * x^2. That is 29
   squarings and 8 multiplications against ~45 operations for
   square-and-multiply. The range check comes first: a lane outside
   [1, p) runs the chain on 0, whose power is 0, so its verdict is
   false and [reduce_p] never sees a product of 2^62 or more. The
   chain exists only on four lanes: padding three of them costs a lone
   element more than square-and-multiply, so [is_member] keeps that. *)
let chain_offsets = 15 + 12 + 2

let[@inline] in_range x = if x >= 1 && x < p then x else 0

(* true iff every lane is a member *)
let members4 x0 x1 x2 x3 =
  let a = in_range x0 and b = in_range x1 and c = in_range x2 and d = in_range x3 in
  let a2 = sqr a and b2 = sqr b and c2 = sqr c and d2 = sqr d in
  let a3 = mulp a2 a and b3 = mulp b2 b and c3 = mulp c2 c and d3 = mulp d2 d in
  let a12 = sqr (sqr a3) and b12 = sqr (sqr b3) and c12 = sqr (sqr c3) and d12 = sqr (sqr d3) in
  let a15 = mulp a12 a3 and b15 = mulp b12 b3 and c15 = mulp c12 c3 and d15 = mulp d12 d3 in
  (* the refs stay unboxed only while no closure captures them, so
     each run of squarings is written out *)
  let ya = ref a15 and yb = ref b15 and yc = ref c15 and yd = ref d15 in
  for _ = 1 to 4 do ya := sqr !ya; yb := sqr !yb; yc := sqr !yc; yd := sqr !yd done;
  let a255 = mulp !ya a15 and b255 = mulp !yb b15 in
  let c255 = mulp !yc c15 and d255 = mulp !yd d15 in
  ya := a255; yb := b255; yc := c255; yd := d255;
  for _ = 1 to 8 do ya := sqr !ya; yb := sqr !yb; yc := sqr !yc; yd := sqr !yd done;
  ya := mulp !ya a255; yb := mulp !yb b255; yc := mulp !yc c255; yd := mulp !yd d255;
  for _ = 1 to 8 do ya := sqr !ya; yb := sqr !yb; yc := sqr !yc; yd := sqr !yd done;
  ya := mulp !ya a255; yb := mulp !yb b255; yc := mulp !yc c255; yd := mulp !yd d255;
  for _ = 1 to 6 do ya := sqr !ya; yb := sqr !yb; yc := sqr !yc; yd := sqr !yd done;
  let ra = mulp (mulp (mulp !ya a15) a12) a2 and rb = mulp (mulp (mulp !yb b15) b12) b2 in
  let rc = mulp (mulp (mulp !yc c15) c12) c2 and rd = mulp (mulp (mulp !yd d15) d12) d2 in
  (ra lxor 1) lor (rb lxor 1) lor (rc lxor 1) lor (rd lxor 1) = 0

let is_member x = x >= 1 && x < p && pow_int x q = 1

let elt_of_int x =
  if not (is_member x) then invalid_arg "Group.elt_of_int: not a subgroup element";
  x

(* a short tail is padded with 1, a member *)
let[@inline] lane a n i = if i < n then Array.unsafe_get a i else 1

(* [elt] is [int] here, so the checked array is returned as it is,
   without a copy; the caller hands it over (group.mli). *)
let elts_of_ints a =
  let n = Array.length a in
  let i = ref 0 in
  while !i < n && members4 a.(!i) (lane a n (!i + 1)) (lane a n (!i + 2)) (lane a n (!i + 3)) do
    i := !i + 4
  done;
  if !i < n then invalid_arg "Group.elt_of_int: not a subgroup element";
  a

type lanes = { l0 : elt; l1 : elt; l2 : elt; l3 : elt }

(* Right-to-left square-and-multiply with no data-dependent branch:
   each bit multiplies by b or by 1, picked with the mask -bit. A
   branch per bit mispredicts on random exponents, and a branchy
   four-lane version measured no faster than one lane. Exponents are
   reduced, so 30 bits cover them. *)
let[@inline] pick b mask = ((b - 1) land mask) + 1

let pow_lanes b0 e0 b1 e1 b2 e2 b3 e3 =
  let b0 = ref b0 and b1 = ref b1 and b2 = ref b2 and b3 = ref b3 in
  let r0 = ref 1 and r1 = ref 1 and r2 = ref 1 and r3 = ref 1 in
  for bit = 0 to 29 do
    r0 := mulp !r0 (pick !b0 (-((e0 lsr bit) land 1)));
    r1 := mulp !r1 (pick !b1 (-((e1 lsr bit) land 1)));
    r2 := mulp !r2 (pick !b2 (-((e2 lsr bit) land 1)));
    r3 := mulp !r3 (pick !b3 (-((e3 lsr bit) land 1)));
    b0 := sqr !b0;
    b1 := sqr !b1;
    b2 := sqr !b2;
    b3 := sqr !b3
  done;
  { l0 = !r0; l1 = !r1; l2 = !r2; l3 = !r3 }

(* Startup self-check: the chain's decomposition is q, and the chain
   and the lane power agree with square-and-multiply. *)
let () =
  assert ((((1 lsl 24) - 1) lsl 6) + chain_offsets = q);
  let samples = [ 1; 2; 4; p - 1; 12345; 1 lsl 30 ] in
  List.iter
    (fun x ->
      assert (members4 x 1 1 1 = (pow_int x q = 1));
      let l = pow_lanes x (q - 1) 1 0 x 1 4 (x mod q) in
      assert (l.l0 = pow_int x (q - 1) && l.l1 = 1 && l.l2 = x && l.l3 = pow_int 4 (x mod q)))
    samples

let exp_of_int x =
  let r = x mod q in
  if r < 0 then r + q else r

let elt_to_int x = x
let exp_to_int x = x
let mul a b = reduce_p (a * b)
let inv a = pow_int a (p - 2)
let div a b = mul a (inv b)
let pow b e = pow_int b e

(* Fixed-base exponentiation: radix-2^8 precomputation. For a base b,
   [table.((w lsl 8) lor d)] holds b^(d * 2^(8w)) for the four 8-bit
   windows covering Z_q (q < 2^30), so b^e costs three modular
   multiplications and four table lookups instead of ~31 squarings plus
   ~15 multiplications of square-and-multiply. Tables are 1024 words;
   one is built per long-lived base (g, a round's joint key). *)
type precomp = { base : elt; table : elt array }

let precomp b =
  let table = Array.make 1024 1 in
  let window_base = ref b in
  for w = 0 to 3 do
    let bw = !window_base in
    let acc = ref 1 in
    for d = 1 to 255 do
      acc := reduce_p (!acc * bw);
      table.((w lsl 8) lor d) <- !acc
    done;
    (* bw^255 * bw = bw^256, the next window's base *)
    window_base := reduce_p (!acc * bw)
  done;
  { base = b; table }

let pow_precomp { table; _ } e =
  let m01 = reduce_p (table.(e land 0xff) * table.(0x100 lor ((e lsr 8) land 0xff))) in
  let m2 = table.(0x200 lor ((e lsr 16) land 0xff)) in
  let m3 = table.(0x300 lor ((e lsr 24) land 0xff)) in
  reduce_p (reduce_p (m01 * m2) * m3)

let g_precomp = precomp g
let pow_g e = pow_precomp g_precomp e

let pow_tab ?tab b e =
  match tab with
  | None -> pow b e
  | Some t ->
    if t.base <> b then invalid_arg "Group.pow_tab: table base mismatch";
    pow_precomp t e

(* Montgomery batch inversion: n inverses for one exponentiation and
   3(n-1) multiplications (prefix products forward, unwind backward). *)
let batch_inv xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n 1 in
    let acc = ref 1 in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      acc := reduce_p (!acc * xs.(i))
    done;
    let out = Array.make n 1 in
    let suffix_inv = ref (pow_int !acc (p - 2)) in
    for i = n - 1 downto 0 do
      out.(i) <- reduce_p (!suffix_inv * prefix.(i));
      suffix_inv := reduce_p (!suffix_inv * xs.(i))
    done;
    out
  end
let exp_add a b =
  let s = a + b in
  if s >= q then s - q else s

let exp_sub a b =
  let d = a - b in
  if d < 0 then d + q else d

let exp_mul a b = reduce_q (a * b)
let exp_neg a = if a = 0 then 0 else q - a
let exp_inv a =
  if a = 0 then invalid_arg "Group.exp_inv: zero exponent";
  pow_q_int a (q - 2)

let random_exp drbg = Drbg.uniform drbg q
let random_exps drbg count = Drbg.uniform_array drbg q count
let random_elt drbg = pow_g (random_exp drbg)

let exp_of_digest d =
  let v = ref 0 in
  (* 60 bits of the digest, then reduce; bias is q / 2^60 < 2^-29. *)
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  reduce_q (!v land ((1 lsl 60) - 1))

let hash_to_exp s = exp_of_digest (Sha256.digest s)

let hash_to_elt s =
  let e = hash_to_exp ("elt|" ^ s) in
  (* g^e is uniform in the subgroup as e ranges over Z_q. *)
  pow_g (if e = 0 then 1 else e)

(* Pippenger-style multi-exponentiation: prod_i bases.(i)^exps.(i).

   Windowed bucket method over w-bit digits of the exponents, high
   window first: per window, each base is multiplied into the bucket of
   its digit (one multiplication per term), then the buckets fold via
   running suffix products (2^w multiplications), and w squarings chain
   the windows. Total ~ ceil(30/w) * (n + 2^(w+1)) multiplications, or
   ~4 per term at n = 2^20 against ~45 for a naive pow-and-fold. The
   window widens with n; below [multi_exp_cutover] terms the bucket
   overhead loses to the naive fold, so small batches use it directly
   (and callers keep fixed-base terms — g, a long-lived public key — on
   the radix-2^8 tables, which beat both; see DESIGN.md §3c).

   Large inputs are split into fixed-size chunks folded in index order:
   the chunk products multiply back together exactly, so the result is
   identical at any pool size. *)

let multi_exp_cutover = 8

let window_bits n =
  if n < 32 then 4
  else if n < 128 then 5
  else if n < 512 then 6
  else if n < 2048 then 7
  else 8

let multi_exp_seq bases exps lo hi =
  let n = hi - lo in
  if n <= 0 then 1
  else if n < multi_exp_cutover then begin
    let acc = ref 1 in
    for i = lo to hi - 1 do
      acc := reduce_p (!acc * pow_int bases.(i) exps.(i))
    done;
    !acc
  end
  else begin
    let w = window_bits n in
    let nbuckets = 1 lsl w in
    let buckets = Array.make nbuckets 1 in
    let nwindows = (30 + w - 1) / w in
    let acc = ref 1 in
    for win = nwindows - 1 downto 0 do
      if win < nwindows - 1 then
        for _ = 1 to w do
          acc := reduce_p (!acc * !acc)
        done;
      Array.fill buckets 0 nbuckets 1;
      let shift = w * win in
      for i = lo to hi - 1 do
        let d = (exps.(i) lsr shift) land (nbuckets - 1) in
        if d > 0 then buckets.(d) <- reduce_p (buckets.(d) * bases.(i))
      done;
      (* prod_d buckets.(d)^d via running suffix products *)
      let running = ref 1 and sum = ref 1 in
      for d = nbuckets - 1 downto 1 do
        running := reduce_p (!running * buckets.(d));
        sum := reduce_p (!sum * !running)
      done;
      acc := reduce_p (!acc * !sum)
    done;
    !acc
  end

let multi_exp_chunk = 1 lsl 14

let multi_exp ~bases ~exps =
  let n = Array.length bases in
  if Array.length exps <> n then invalid_arg "Group.multi_exp: length mismatch";
  if n <= multi_exp_chunk then multi_exp_seq bases exps 0 n
  else begin
    let nchunks = (n + multi_exp_chunk - 1) / multi_exp_chunk in
    let partials =
      Parallel.parallel_init ~min_chunk:1 nchunks (fun c ->
          multi_exp_seq bases exps (c * multi_exp_chunk)
            (min n ((c + 1) * multi_exp_chunk)))
    in
    Array.fold_left (fun acc x -> reduce_p (acc * x)) 1 partials
  end
