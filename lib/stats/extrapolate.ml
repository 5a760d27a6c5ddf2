(* Inferring network-wide totals from the fraction of the network our
   relays observe (paper §3.3): divide the measured value and its CI by
   the observed fraction p. For unique counts without a usable frequency
   model, the paper reports the conservative range [x, x/p]. *)

let count ~fraction value =
  if fraction <= 0.0 || fraction > 1.0 then invalid_arg "Extrapolate.count: bad fraction";
  value /. fraction

let count_ci ~fraction (ci : Ci.t) =
  if fraction <= 0.0 || fraction > 1.0 then invalid_arg "Extrapolate.count_ci: bad fraction";
  Ci.scale ci (1.0 /. fraction)

(* Conservative unique-count range: every observed item might be seen by
   every relay (lower bound = x) or by only us (upper bound = x/p). *)
let unique_range ~fraction value =
  if fraction <= 0.0 || fraction > 1.0 then invalid_arg "Extrapolate.unique_range: bad fraction";
  Ci.make value (value /. fraction)

let unique_range_ci ~fraction (ci : Ci.t) =
  if fraction <= 0.0 || fraction > 1.0 then
    invalid_arg "Extrapolate.unique_range_ci: bad fraction";
  Ci.make ci.Ci.lo (ci.Ci.hi /. fraction)
