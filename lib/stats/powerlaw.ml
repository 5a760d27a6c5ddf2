(* Power-law (Zipf) popularity machinery for unique-count extrapolation
   (paper §4.3): site visits follow a power law; given our relays observe
   a fraction p of all visits, the number of *distinct* sites we observe
   depends on the exponent. The paper simulates clients visiting random
   destinations under candidate exponents and keeps those consistent
   with the locally observed unique count. *)

(* Expected number of distinct items observed when drawing [draws]
   visits from a Zipf(n, s) popularity distribution:
   sum_k (1 - (1 - q_k)^draws), computed with the exact per-rank
   probabilities. O(n) per evaluation. *)
let expected_distinct ~n ~s ~draws =
  if n <= 0 then invalid_arg "Powerlaw.expected_distinct: n must be positive";
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (float_of_int k ** -.s)
  done;
  let total = ref 0.0 in
  let d = float_of_int draws in
  for k = 1 to n do
    let q = (float_of_int k ** -.s) /. !h in
    (* 1 - (1-q)^d via expm1 for tiny q *)
    let log1mq = log1p (-.q) in
    total := !total +. (1.0 -. exp (d *. log1mq))
  done;
  !total

(* Simulate the number of distinct items seen in a sample of [draws]
   visits out of a universe of n Zipf(s)-popular items. One trial. *)
let simulate_distinct rng ~n ~s ~draws =
  let seen = Hashtbl.create (min draws 65_536) in
  for _ = 1 to draws do
    let k = Prng.Dist.zipf rng ~n ~s in
    if not (Hashtbl.mem seen k) then Hashtbl.add seen k ()
  done;
  Hashtbl.length seen

(* The paper's extrapolation: we locally saw [observed_distinct] uniques
   out of [observed_draws] visits; the whole network performs
   observed_draws / fraction visits. For candidate exponents drawn at
   random, keep those whose predicted local distinct count matches the
   observation (within tolerance), and report the spread of their
   predicted network-wide distinct counts. *)
type extrapolation = {
  network_distinct : Ci.t;
  accepted_exponents : float list;
  trials : int;
}

let extrapolate_unique rng ~universe ~observed_distinct ~observed_draws ~fraction
    ?(trials = 100) ?(tolerance = 0.05) () =
  if fraction <= 0.0 || fraction > 1.0 then
    invalid_arg "Powerlaw.extrapolate_unique: bad fraction";
  let network_draws = int_of_float (float_of_int observed_draws /. fraction) in
  let accepted = ref [] in
  for _ = 1 to trials do
    (* candidate exponent in the web-popularity range reported in the
       literature the paper cites (Adamic–Huberman, Krashakov et al.) *)
    let s = 0.6 +. (Prng.Rng.float rng *. 0.8) in
    let predicted_local = expected_distinct ~n:universe ~s ~draws:observed_draws in
    let err = abs_float (predicted_local -. float_of_int observed_distinct)
              /. float_of_int (max 1 observed_distinct)
    in
    if err <= tolerance then begin
      let predicted_network = expected_distinct ~n:universe ~s ~draws:network_draws in
      accepted := (s, predicted_network) :: !accepted
    end
  done;
  match !accepted with
  | [] ->
    (* fall back to the conservative [x, x/p] range *)
    {
      network_distinct = Extrapolate.unique_range ~fraction (float_of_int observed_distinct);
      accepted_exponents = [];
      trials;
    }
  | accepted ->
    let values = Array.of_list (List.map snd accepted) in
    {
      network_distinct = Descriptive.empirical_ci values;
      accepted_exponents = List.map fst accepted;
      trials;
    }
