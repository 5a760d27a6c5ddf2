(* Privacy budget allocation across the counters of one measurement
   round. PrivCount splits ε and δ across simultaneously-published
   statistics so that the round as a whole is (ε,δ)-DP by basic
   composition. The paper additionally never runs PrivCount and PSC in
   parallel and spaces distinct statistics by >= 24h (see Schedule). *)

type allocation = { per_counter : Mechanism.params; counters : int }

let split params ~counters =
  if counters <= 0 then invalid_arg "Budget.split: need at least one counter";
  let open Mechanism in
  {
    per_counter =
      {
        epsilon = params.epsilon /. float_of_int counters;
        delta = params.delta /. float_of_int counters;
      };
    counters;
  }

(* Basic sequential composition: total privacy cost of a list of
   (ε_i, δ_i) publications. *)
let compose params_list =
  List.fold_left
    (fun acc p ->
      Mechanism.
        { epsilon = acc.epsilon +. p.epsilon; delta = acc.delta +. p.delta })
    Mechanism.{ epsilon = 0.0; delta = 0.0 }
    params_list
