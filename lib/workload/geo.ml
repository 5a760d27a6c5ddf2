(* Synthetic geographic population model (the paper resolves client IPs
   with MaxMind GeoLite2). Countries carry a client-population weight
   plus per-country behaviour modifiers; the United Arab Emirates
   reproduces the paper's anomaly — clients that mostly build directory
   circuits but few data connections (§5.2). *)

type country = {
  code : string;
  weight : float;              (* share of the client population *)
  circuit_boost : float;       (* multiplier on circuits built per client *)
  data_scale : float;          (* multiplier on bytes transferred per client *)
}

(* The countries large enough to rise above the DP noise in Fig. 4. *)
let major =
  [
    { code = "US"; weight = 0.210; circuit_boost = 1.0; data_scale = 1.15 };
    { code = "RU"; weight = 0.150; circuit_boost = 1.0; data_scale = 1.00 };
    { code = "DE"; weight = 0.125; circuit_boost = 1.0; data_scale = 0.95 };
    { code = "UA"; weight = 0.055; circuit_boost = 1.0; data_scale = 0.80 };
    { code = "FR"; weight = 0.050; circuit_boost = 1.0; data_scale = 0.85 };
    { code = "GB"; weight = 0.040; circuit_boost = 0.9; data_scale = 0.90 };
    { code = "CA"; weight = 0.035; circuit_boost = 1.0; data_scale = 0.70 };
    { code = "NL"; weight = 0.025; circuit_boost = 0.9; data_scale = 0.60 };
    { code = "PL"; weight = 0.022; circuit_boost = 1.1; data_scale = 0.40 };
    { code = "ES"; weight = 0.020; circuit_boost = 1.0; data_scale = 0.50 };
    { code = "IT"; weight = 0.020; circuit_boost = 0.8; data_scale = 0.45 };
    { code = "BR"; weight = 0.020; circuit_boost = 0.7; data_scale = 0.55 };
    { code = "SE"; weight = 0.015; circuit_boost = 0.7; data_scale = 0.40 };
    { code = "MX"; weight = 0.012; circuit_boost = 0.6; data_scale = 0.45 };
    { code = "AR"; weight = 0.010; circuit_boost = 0.6; data_scale = 0.35 };
    (* The UAE anomaly: a modest population whose clients churn through
       directory circuits while being blocked from building data
       circuits, landing it high in the circuit ranking only. *)
    { code = "AE"; weight = 0.012; circuit_boost = 12.0; data_scale = 0.02 };
    { code = "VE"; weight = 0.015; circuit_boost = 0.5; data_scale = 0.20 };
  ]

(* ISO-like codes for the long tail; combined with [major] this gives a
   ~230-country universe so the PSC country count can approach the
   paper's 203-of-250 observation. *)
let tail_codes =
  List.init 213 (fun i -> Printf.sprintf "%c%c" (Char.chr (65 + (i / 26 mod 26))) (Char.chr (65 + (i mod 26))))
  |> List.filter (fun c -> not (List.exists (fun m -> m.code = c) major))

let tail_weight_total = 0.164

let universe : country array =
  let n_tail = List.length tail_codes in
  let tail =
    (* Zipf-ish tail weights so some small countries are reliably seen
       and others only occasionally. *)
    List.mapi
      (fun i code ->
        let w = tail_weight_total /. (float_of_int (i + 2) ** 1.05) in
        { code; weight = w; circuit_boost = 1.0; data_scale = 0.5 })
      tail_codes
  in
  ignore n_tail;
  Array.of_list (major @ tail)

(* Eager, not lazy: [sample] runs on pool workers via Population.build,
   and forcing a lazy from two domains races the initializer. *)
let sampler = Prng.Alias.create (Array.map (fun c -> c.weight) universe)

let sample rng = universe.(Prng.Alias.sample sampler rng)

let find code = Array.to_list universe |> List.find_opt (fun c -> c.code = code)
