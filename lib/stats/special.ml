(* erfc via the Numerical-Recipes Chebyshev fit (erfccheb); absolute
   error ~1e-13 on the real line. *)

let erfc_cheb x =
  (* valid for x >= 0 *)
  let cof =
    [| -1.3026537197817094; 6.4196979235649026e-1; 1.9476473204185836e-2;
       -9.561514786808631e-3; -9.46595344482036e-4; 3.66839497852761e-4;
       4.2523324806907e-5; -2.0278578112534e-5; -1.624290004647e-6; 1.303655835580e-6;
       1.5626441722e-8; -8.5238095915e-8; 6.529054439e-9; 5.059343495e-9;
       -9.91364156e-10; -2.27365122e-10; 9.6467911e-11; 2.394038e-12; -6.886027e-12;
       8.94487e-13; 3.13092e-13; -1.12708e-13; 3.81e-16; 7.106e-15 |]
  in
  let t = 2.0 /. (2.0 +. x) in
  let ty = (4.0 *. t) -. 2.0 in
  let d = ref 0.0 and dd = ref 0.0 in
  for j = Array.length cof - 1 downto 1 do
    let tmp = !d in
    d := (ty *. !d) -. !dd +. cof.(j);
    dd := tmp
  done;
  t *. exp ((-.x *. x) +. (0.5 *. (cof.(0) +. (ty *. !d))) -. !dd)

let erfc x = if x >= 0.0 then erfc_cheb x else 2.0 -. erfc_cheb (-.x)

let sqrt2 = sqrt 2.0

let normal_cdf ?(mu = 0.0) ?(sigma = 1.0) x =
  if sigma <= 0.0 then invalid_arg "Special.normal_cdf: sigma must be positive";
  0.5 *. erfc (-.(x -. mu) /. (sigma *. sqrt2))

(* Acklam's rational approximation for the inverse normal CDF, refined
   with one Halley step against our erfc-based CDF. *)
let normal_ppf p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.normal_ppf: p must be in (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* One Halley refinement. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let z_for_confidence conf =
  if conf <= 0.0 || conf >= 1.0 then invalid_arg "Special.z_for_confidence";
  normal_ppf (1.0 -. ((1.0 -. conf) /. 2.0))
