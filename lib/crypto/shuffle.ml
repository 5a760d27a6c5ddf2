(* Cut-and-choose shuffle argument.

   Notation: permuting with [perm] places input element [perm.(i)] at
   output position [i]. The real shuffle is
     ys.(i) = E(1; r.(i)) * xs.(pi.(i))
   and each shadow is
     zs.(i) = E(1; s.(i)) * xs.(sigma.(i)).
   Opening the shadow->output link uses tau = sigma^-1 . pi, so that
     ys.(i) = E(1; r.(i) - s.(tau.(i))) * zs.(tau.(i)). *)

type opening =
  | Input_link of int array * Group.exp array   (* sigma, s: xs -> zs *)
  | Output_link of int array * Group.exp array  (* tau, t: zs -> ys *)

type round = { shadow : Elgamal.ciphertext array; opening : opening }

type proof = { rounds : round list }

let default_rounds = 16

(* Hot loop: one rerandomizing encryption per element, with the
   randomness pre-drawn in [rand] — pure per index, so it runs on the
   domain pool and uses the caller's fixed-base table for pk. *)
let apply_link ?tab pk ~from ~perm ~rand =
  Parallel.parallel_init (Array.length from) (fun i ->
      Elgamal.mul (Elgamal.encrypt_with ?tab ~r:rand.(i) pk Elgamal.one) from.(perm.(i)))

let invert_perm perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

(* Fisher–Yates with the swap indices drawn in one bulk DRBG read:
   draw k (0-based) swaps position i = n-1-k and needs a bound of i+1 =
   n-k. See the bulk-draw note in Drbg — this consumes the stream
   differently from n-1 single [uniform] calls. *)
let random_perm drbg n =
  let a = Array.init n (fun i -> i) in
  if n > 1 then begin
    let js = Drbg.uniform_lanes drbg (fun k -> n - k) (n - 1) in
    for k = 0 to n - 2 do
      let i = n - 1 - k in
      let j = js.(k) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
  end;
  a

(* The round digest carries no domain tag: pk, then every ciphertext of
   the input, the output and each shadow in round order. *)
let transcript_digest pk ~input ~output ~shadows =
  let t = Transcript.(create "" |> elt pk |> ciphertexts input |> ciphertexts output) in
  Transcript.digest (List.fold_left (fun t s -> Transcript.ciphertexts s t) t shadows)

let challenge_bit digest j = (Char.code digest.[j / 8 mod 32] lsr (j mod 8)) land 1 = 1

let shuffle ?(rounds = default_rounds) ?tab drbg pk input =
  let n = Array.length input in
  let tab = match tab with Some t -> t | None -> Group.precomp pk in
  (* sequential randomness prepass in the legacy logical order — pi, r,
     then (sigma_j, s_j) per round — each vector as one bulk DRBG read *)
  let pi = random_perm drbg n in
  let r = Group.random_exps drbg n in
  let round_rand = Array.make rounds ([||], [||]) in
  for j = 0 to rounds - 1 do
    let sigma = random_perm drbg n in
    let s = Group.random_exps drbg n in
    round_rand.(j) <- (sigma, s)
  done;
  (* one pooled pass writes the output and every shadow slot: all
     writes are disjoint per index, all randomness pre-drawn *)
  let dummy = { Elgamal.c1 = Group.one; c2 = Group.one } in
  let output = Array.make n dummy in
  let shadows = Array.init rounds (fun _ -> Array.make n dummy) in
  Parallel.parallel_for n (fun i ->
      output.(i) <-
        Elgamal.mul (Elgamal.encrypt_with ~tab ~r:r.(i) pk Elgamal.one) input.(pi.(i));
      for j = 0 to rounds - 1 do
        let sigma, s = round_rand.(j) in
        shadows.(j).(i) <-
          Elgamal.mul (Elgamal.encrypt_with ~tab ~r:s.(i) pk Elgamal.one) input.(sigma.(i))
      done);
  let digest = transcript_digest pk ~input ~output ~shadows:(Array.to_list shadows) in
  let rounds =
    List.init rounds (fun j ->
        let sigma, s = round_rand.(j) in
        let opening =
          if challenge_bit digest j then begin
            (* tau = sigma^-1 . pi: tau.(i) = sigma_inv.(pi.(i)) *)
            let sigma_inv = invert_perm sigma in
            let tau = Array.init n (fun i -> sigma_inv.(pi.(i))) in
            let t = Array.init n (fun i -> Group.exp_sub r.(i) s.(tau.(i))) in
            Output_link (tau, t)
          end
          else Input_link (sigma, s)
        in
        { shadow = shadows.(j); opening })
  in
  (output, { rounds })

let shuffle_unproven ?tab drbg pk input =
  let n = Array.length input in
  let tab = match tab with Some t -> t | None -> Group.precomp pk in
  let pi = random_perm drbg n in
  let r = Group.random_exps drbg n in
  apply_link ~tab pk ~from:input ~perm:pi ~rand:r

let is_perm perm n =
  Array.length perm = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun p ->
      if p < 0 || p >= n || seen.(p) then false
      else begin
        seen.(p) <- true;
        true
      end)
    perm

(* Batched link check (Batch_verify). The opening claims, per slot i,
     dst.(i) = E(1; e_i) * from.(perm(i)), i.e.
     dst_c1(i) = g^{e_i} * from_c1(perm(i))   and
     dst_c2(i) = pk^{e_i} * from_c2(perm(i)).
   Folding each component's n equations with one weight vector w gives
     prod from_c1(perm(i))^{w_i} * dst_c1(i)^{-w_i} = g^{-sum w_i e_i}
   and likewise for c2 against pk. The folds are checked separately, so
   they share w, its exponent vector and right-hand side (Batch_verify).
   Versus recomputing the n rerandomizing encryptions, this allocates
   no shadow-sized ciphertext vector per round. The round digest binds
   pk, input, output and every shadow but not the opening, so the
   weight seed hashes digest, round index, perm and exps. *)
let round_link_ok ~tab ~digest ~j ~from ~dst ~perm ~exps pk =
  let n = Array.length dst in
  let seed =
    Transcript.create digest |> Transcript.int j |> Transcript.ints perm |> Transcript.exps exps
    |> Transcript.digest
  in
  let w = Batch_verify.weights ~context:"shuffle-link" ~digest:seed n in
  let es = Array.make (2 * n) Group.zero_exp in
  let sum = ref Group.zero_exp in
  for i = 0 to n - 1 do
    es.(2 * i) <- w.(i);
    es.((2 * i) + 1) <- Group.exp_neg w.(i);
    sum := Group.exp_add !sum (Group.exp_mul w.(i) exps.(i))
  done;
  let rhs = Group.exp_neg !sum in
  let bases = Array.make (2 * n) Group.one in
  let fold proj =
    for i = 0 to n - 1 do
      bases.(2 * i) <- proj from.(perm.(i));
      bases.((2 * i) + 1) <- proj dst.(i)
    done;
    Group.elt_to_int (Group.multi_exp ~bases ~exps:es)
  in
  fold (fun ct -> ct.Elgamal.c1) = Group.elt_to_int (Group.pow_g rhs)
  && fold (fun ct -> ct.Elgamal.c2) = Group.elt_to_int (Group.pow_tab ~tab pk rhs)

let verify ?tab pk ~input ~output { rounds } =
  let n = Array.length input in
  let tab = match tab with Some t -> t | None -> Group.precomp pk in
  Array.length output = n
  && rounds <> []
  &&
  let digest =
    transcript_digest pk ~input ~output ~shadows:(List.map (fun r -> r.shadow) rounds)
  in
  List.for_all2
    (fun j { shadow; opening } ->
      Array.length shadow = n
      &&
      match opening with
      | Input_link (sigma, s) ->
        (not (challenge_bit digest j))
        && is_perm sigma n && Array.length s = n
        && round_link_ok ~tab ~digest ~j ~from:input ~dst:shadow ~perm:sigma ~exps:s pk
      | Output_link (tau, t) ->
        challenge_bit digest j
        && is_perm tau n && Array.length t = n
        && round_link_ok ~tab ~digest ~j ~from:shadow ~dst:output ~perm:tau ~exps:t pk)
    (List.init (List.length rounds) Fun.id)
    rounds

let proof_rounds { rounds } = List.length rounds

(* Bus wire form. Layout: [nrounds], then per round [n] (vector
   length), 2n shadow ints (c1, c2 per slot), the opening tag (0 =
   input link, 1 = output link), n permutation ints, n exponent ints.
   Each shadow's membership is re-checked on decode as one batch
   ([Group.elts_of_ints]). *)

let split_opening = function
  | Input_link (p, e) -> (0, p, e)
  | Output_link (p, e) -> (1, p, e)

let proof_to_ints { rounds } =
  let size =
    List.fold_left
      (fun acc { shadow; opening } ->
        let _, perm, exps = split_opening opening in
        acc + 2 + (2 * Array.length shadow) + Array.length perm + Array.length exps)
      1 rounds
  in
  let a = Array.make size 0 in
  a.(0) <- List.length rounds;
  let pos = ref 1 in
  List.iter
    (fun { shadow; opening } ->
      let n = Array.length shadow in
      let p = !pos in
      a.(p) <- n;
      Array.iteri
        (fun i ct ->
          a.(p + 1 + (2 * i)) <- Group.elt_to_int ct.Elgamal.c1;
          a.(p + 2 + (2 * i)) <- Group.elt_to_int ct.Elgamal.c2)
        shadow;
      let tag, perm, exps = split_opening opening in
      let p = p + 1 + (2 * n) in
      a.(p) <- tag;
      Array.blit perm 0 a (p + 1) (Array.length perm);
      let p = p + 1 + Array.length perm in
      Array.iteri (fun i e -> a.(p + i) <- Group.exp_to_int e) exps;
      pos := p + Array.length exps)
    rounds;
  a

let proof_of_ints a =
  let len = Array.length a in
  let exception Bad in
  match
    if len = 0 then raise Bad;
    let nrounds = a.(0) in
    if nrounds < 0 || nrounds > 4096 then raise Bad;
    let pos = ref 1 in
    (* explicit loop: rounds follow the wire order *)
    let rounds = ref [] in
    for _ = 1 to nrounds do
      let p = !pos in
      if p >= len then raise Bad;
      let n = a.(p) in
      (* the round's 4n + 1 remaining ints must be there before any
         vector is allocated *)
      if n < 0 || n > 1 lsl 24 || len - p - 1 < (4 * n) + 1 then raise Bad;
      let e = Group.elts_of_ints (Array.sub a (p + 1) (2 * n)) in
      let shadow = Array.init n (fun i -> { Elgamal.c1 = e.(2 * i); c2 = e.((2 * i) + 1) }) in
      let p = p + 1 + (2 * n) in
      let perm = Array.sub a (p + 1) n in
      let exps = Array.init n (fun i -> Group.exp_of_int a.(p + 1 + n + i)) in
      let opening =
        match a.(p) with
        | 0 -> Input_link (perm, exps)
        | 1 -> Output_link (perm, exps)
        | _ -> raise Bad
      in
      rounds := { shadow; opening } :: !rounds;
      pos := p + 1 + (2 * n)
    done;
    if !pos <> len then raise Bad;
    { rounds = List.rev !rounds }
  with
  | p -> Some p
  | exception Bad -> None
  | exception Invalid_argument _ -> None
