(* Helpers shared by the test executables and read by no library code:
   sample moments for judging noise mechanisms, a binomial sampler that
   simulates PSC's coin-flip noise where a test needs many draws, and
   single-key ElGamal decryption. *)

(* Decryption under one secret key: the plaintext oracle for the
   protocols, which only ever decrypt jointly. *)
let decrypt x { Crypto.Elgamal.c1; c2 } = Crypto.Group.(div c2 (pow c1 x))

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Testkit.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* Unbiased (n - 1) sample variance. *)
let variance xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Testkit.variance: need >= 2 samples";
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

(* Binomial(n, p) variate: exact for n <= 64 and for small variance
   (geometric skipping), a clamped normal approximation otherwise. *)
let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Testkit.binomial: negative n";
  if p < 0.0 || p > 1.0 then invalid_arg "Testkit.binomial: p outside [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if n <= 64 then begin
    let count = ref 0 in
    for _ = 1 to n do
      if Prng.Rng.bernoulli rng p then incr count
    done;
    !count
  end
  else
    let mean = float_of_int n *. p in
    let var = mean *. (1.0 -. p) in
    if var < 25.0 then begin
      (* Moderate n with extreme p: exact via geometric skipping. *)
      let q = if p <= 0.5 then p else 1.0 -. p in
      let log1q = log (1.0 -. q) in
      let count = ref 0 and i = ref 0 in
      while !i < n do
        let skip = int_of_float (log (Prng.Rng.float_pos rng) /. log1q) in
        i := !i + skip + 1;
        if !i <= n then incr count
      done;
      if p <= 0.5 then !count else n - !count
    end
    else
      let x = Prng.Dist.normal rng ~mu:mean ~sigma:(sqrt var) in
      min n (max 0 (int_of_float (Float.round x)))
