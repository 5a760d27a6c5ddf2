let normal rng ~mu ~sigma =
  (* Marsaglia polar method; one of the pair is discarded to keep the
     generator stateless apart from the RNG. *)
  let rec draw () =
    let u = (2.0 *. Rng.float rng) -. 1.0 in
    let v = (2.0 *. Rng.float rng) -. 1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || s = 0.0 then draw ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. draw ())

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.log (Rng.float_pos rng) /. rate

let poisson_small rng lambda =
  let l = exp (-.lambda) in
  let rec go k p =
    let p = p *. Rng.float rng in
    if p <= l then k else go (k + 1) p
  in
  go 0 1.0

let poisson rng ~lambda =
  if lambda < 0.0 then invalid_arg "Dist.poisson: negative lambda";
  if lambda = 0.0 then 0
  else if lambda < 30.0 then poisson_small rng lambda
  else
    (* Normal approximation with continuity correction; adequate for the
       workload generator where lambda is large. *)
    let x = normal rng ~mu:lambda ~sigma:(sqrt lambda) in
    max 0 (int_of_float (Float.round x))

let binomial rng ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: negative n";
  if p < 0.0 || p > 1.0 then invalid_arg "Dist.binomial: p outside [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if n <= 64 then begin
    let count = ref 0 in
    for _ = 1 to n do
      if Rng.bernoulli rng p then incr count
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
        let skip = int_of_float (log (Rng.float_pos rng) /. log1q) in
        i := !i + skip + 1;
        if !i <= n then incr count
      done;
      if p <= 0.5 then !count else n - !count
    end
    else
      let x = normal rng ~mu:mean ~sigma:(sqrt var) in
      min n (max 0 (int_of_float (Float.round x)))

let geometric rng ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Dist.geometric: p outside (0,1]";
  if p = 1.0 then 0
  else int_of_float (log (Rng.float_pos rng) /. log (1.0 -. p))

(* Rejection-inversion sampling for the Zipf distribution (Hörmann &
   Derflinger 1996). Exact and O(1) amortized even for n = 10^6. *)
let zipf rng ~n ~s =
  if n < 1 then invalid_arg "Dist.zipf: n must be >= 1";
  if s <= 0.0 then invalid_arg "Dist.zipf: s must be positive";
  if n = 1 then 1
  else begin
    let h x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv x = if s = 1.0 then exp x else ((1.0 -. s) *. x) ** (1.0 /. (1.0 -. s)) in
    let hx0 = h 0.5 -. 1.0 in
    let hn = h (float_of_int n +. 0.5) in
    let rec draw () =
      let u = hx0 +. (Rng.float rng *. (hn -. hx0)) in
      let x = h_inv u in
      let k = Float.round x in
      let k = if k < 1.0 then 1.0 else if k > float_of_int n then float_of_int n else k in
      if u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k else draw ()
    in
    draw ()
  end

let log_factorial =
  let table = lazy (
    let t = Array.make 257 0.0 in
    for i = 2 to 256 do
      t.(i) <- t.(i - 1) +. log (float_of_int i)
    done;
    t)
  in
  fun n ->
    if n < 0 then invalid_arg "Dist.log_factorial: negative argument";
    if n <= 256 then (Lazy.force table).(n)
    else
      (* Stirling series with 1/(12n) correction: error < 1e-10 for n > 256. *)
      let x = float_of_int n in
      (x +. 0.5) *. log x -. x +. (0.5 *. log (2.0 *. Float.pi)) +. (1.0 /. (12.0 *. x))

let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else log_factorial n -. log_factorial k -. log_factorial (n - k)
