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

(* HSDir replication-based extrapolation (paper §6.1): a descriptor is
   stored on [replicas] of the network's HSDir slots; our relays hold
   [observed_slots] of [total_slots] slots, so we see a published
   address with probability 1 - (1 - observed_slots/total_slots)^replicas. *)
let hsdir_visibility ~observed_slots ~total_slots ~replicas =
  if observed_slots < 0 || total_slots <= 0 || observed_slots > total_slots then
    invalid_arg "Extrapolate.hsdir_visibility: bad slot counts";
  let f = float_of_int observed_slots /. float_of_int total_slots in
  1.0 -. ((1.0 -. f) ** float_of_int replicas)
