let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Descriptive.variance: need >= 2 samples";
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let quantile xs q =
  if q < 0.0 || q > 1.0 then invalid_arg "Descriptive.quantile: q outside [0,1]";
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.quantile: empty";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  (* linear interpolation between closest ranks *)
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) and hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)

(* Sample-based central CI: the empirical [alpha/2, 1-alpha/2] quantiles.
   Used by the Monte-Carlo extrapolations. *)
let empirical_ci ?(confidence = 0.95) xs =
  let tail = (1.0 -. confidence) /. 2.0 in
  Ci.make (quantile xs tail) (quantile xs (1.0 -. tail))
