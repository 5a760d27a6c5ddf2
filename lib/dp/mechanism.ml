type params = { epsilon : float; delta : float }

let paper_params = { epsilon = 0.3; delta = 1e-11 }

let check { epsilon; delta } =
  if epsilon <= 0.0 then invalid_arg "Mechanism: epsilon must be positive";
  if delta <= 0.0 || delta >= 1.0 then invalid_arg "Mechanism: delta must be in (0,1)"

let gaussian_sigma params ~sensitivity =
  check params;
  if sensitivity < 0.0 then invalid_arg "Mechanism: negative sensitivity";
  sensitivity *. sqrt (2.0 *. log (1.25 /. params.delta)) /. params.epsilon

let gaussian_noise rng ~sigma = Prng.Dist.normal rng ~mu:0.0 ~sigma

let binomial_n_for params ~sensitivity =
  check params;
  let n =
    64.0 *. sensitivity *. sensitivity *. log (2.0 /. params.delta)
    /. (params.epsilon *. params.epsilon)
  in
  int_of_float (ceil n)

let laplace_scale ~epsilon ~sensitivity =
  if epsilon <= 0.0 then invalid_arg "Mechanism.laplace_scale: epsilon must be positive";
  if sensitivity < 0.0 then invalid_arg "Mechanism.laplace_scale: negative sensitivity";
  sensitivity /. epsilon

let laplace_noise rng ~scale =
  (* inverse-CDF sampling: u uniform in (-1/2, 1/2] *)
  let u = Prng.Rng.float rng -. 0.5 in
  let sign = if u < 0.0 then 1.0 else -1.0 in
  sign *. scale *. log (1.0 -. (2.0 *. Float.abs u))
