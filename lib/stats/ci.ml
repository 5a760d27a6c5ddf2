type t = { lo : float; hi : float }

let make lo hi =
  if lo > hi then invalid_arg "Ci.make: lo > hi";
  { lo; hi }

let width { lo; hi } = hi -. lo
let contains { lo; hi } x = x >= lo && x <= hi
let midpoint { lo; hi } = (lo +. hi) /. 2.0

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let union a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let scale { lo; hi } f =
  if f < 0.0 then invalid_arg "Ci.scale: negative factor";
  { lo = lo *. f; hi = hi *. f }

let normal ?(confidence = 0.95) ~value ~sigma () =
  if sigma < 0.0 then invalid_arg "Ci.normal: negative sigma";
  let z = Special.z_for_confidence confidence in
  { lo = value -. (z *. sigma); hi = value +. (z *. sigma) }

(* --- occupancy model for the PSC hash table --- *)

let expected_occupied ~table_size k =
  if table_size <= 0 then invalid_arg "Ci.expected_occupied: table_size must be positive";
  if k < 0 then invalid_arg "Ci.expected_occupied: negative k";
  let m = float_of_int table_size in
  m *. (1.0 -. ((1.0 -. (1.0 /. m)) ** float_of_int k))

let occupied_stddev ~table_size k =
  let m = float_of_int table_size and k = float_of_int k in
  let a = (1.0 -. (1.0 /. m)) ** k in
  let b = (1.0 -. (2.0 /. m)) ** k in
  let var = (m *. (m -. 1.0) *. b) +. (m *. a) -. (m *. m *. a *. a) in
  sqrt (max 0.0 var)

let invert_occupancy ~table_size occ =
  let m = float_of_int table_size in
  if occ <= 0.0 then 0.0
  else if occ >= m then infinity
  else log (1.0 -. (occ /. m)) /. log (1.0 -. (1.0 /. m))

(* --- exact central quantiles of Binomial(n, 1/2) - n/2 --- *)

(* For moderate n we sum the pmf exactly in log space; past the exact
   threshold the normal approximation with continuity correction is
   accurate to far better than the quantile granularity we need. *)
let binomial_central_quantiles ~n ~confidence =
  if n <= 0 then (0.0, 0.0)
  else if n <= 65_536 then begin
    let tail = (1.0 -. confidence) /. 2.0 in
    let log_half_n = float_of_int n *. log 0.5 in
    (* walk the cdf upward from 0 *)
    let cdf = Array.make (n + 1) 0.0 in
    let acc = ref 0.0 in
    for k = 0 to n do
      acc := !acc +. exp (Prng.Dist.log_choose n k +. log_half_n);
      cdf.(k) <- !acc
    done;
    (* lo_k: smallest k with P(X <= k) >= tail; hi_k: smallest k with
       P(X > k) <= tail. The central region [lo_k, hi_k] then has
       probability >= confidence. *)
    let lo_k =
      let rec find k = if k > n || cdf.(k) >= tail then k else find (k + 1) in
      find 0
    in
    let hi_k =
      let rec find k = if k >= n || 1.0 -. cdf.(k) <= tail then k else find (k + 1) in
      find lo_k
    in
    let center = float_of_int n /. 2.0 in
    (float_of_int lo_k -. center, float_of_int hi_k -. center)
  end
  else begin
    let sigma = sqrt (float_of_int n) /. 2.0 in
    let z = Special.z_for_confidence confidence in
    (-.(z *. sigma) -. 0.5, (z *. sigma) +. 0.5)
  end

let binomial_exact ?(confidence = 0.95) ~observed ~flips ~table_size () =
  (* observed = occ(k) + [Binomial(flips,1/2) - flips/2]; the acceptance
     region in k is the interval where occ(k) is within the central
     binomial quantiles of observed, widened by the occupancy's own
     spread. Monotonicity of occ(k) lets us invert in closed form. *)
  let q_lo, q_hi = binomial_central_quantiles ~n:flips ~confidence in
  let center = float_of_int flips /. 2.0 in
  let occ_hi = float_of_int observed -. center -. q_lo in
  let occ_lo = float_of_int observed -. center -. q_hi in
  let widen occ sign =
    let k0 = invert_occupancy ~table_size (min occ (float_of_int table_size -. 1.0)) in
    let sd = occupied_stddev ~table_size (max 0 (int_of_float k0)) in
    occ +. (sign *. 2.0 *. sd)
  in
  let occ_lo = max 0.0 (widen occ_lo (-1.0)) in
  let m = float_of_int table_size in
  let occ_hi = min (m -. 1.0) (widen occ_hi 1.0) in
  let k_lo = invert_occupancy ~table_size occ_lo in
  let k_hi = invert_occupancy ~table_size occ_hi in
  make (max 0.0 k_lo) (max k_lo k_hi)
