(* Terelius–Wikström proof of shuffle (AFRICACRYPT 2010), in the
   notation of Wikström's Verificatum verifier specification.

   Permuting with [pi] places input element [pi.(i)] at output
   position [i]:
     y_i = E(1; r_i) * x_{pi(i)}.
   The prover commits to the permutation matrix, one generator per
   output position,
     u_{pi(i)} = g^{s_{pi(i)}} h_i,
   draws challenges e from the transcript and sets e'_i = e_{pi(i)}.
   It then proves knowledge of openings with
     prod u_j^{e_j} = g^a prod h_i^{e'_i}         (A)
     prod u_j / prod h_i = g^c                      (C)
     prod e'_i = prod e_i                           (B chain, D)
     prod x_j^{e_j} = E(1; -f) prod y_i^{e'_i}      (F)
   which together force the committed matrix to be a permutation and
   the output to be its rerandomized image (DESIGN.md §3c). Slots are
   0-based here: slot i uses generator h_{i+1} and chain element
   B_{i+1}; h_0 is the chain's base B_0. *)

type proof = {
  u : Group.elt array;  (** permutation commitment *)
  b : Group.elt array;  (** B_1 .. B_n *)
  b' : Group.elt array;  (** B'_1 .. B'_n *)
  a' : Group.elt;
  c' : Group.elt;
  d' : Group.elt;
  f' : Elgamal.ciphertext;
  k_a : Group.exp;
  k_b : Group.exp array;
  k_c : Group.exp;
  k_d : Group.exp;
  k_e : Group.exp array;
  k_f : Group.exp;
}

(* Generators h_0, h_1, ...: squares of a fixed public DRBG stream, so
   no party knows a discrete log between any two of them or g. Block k
   holds h_{1024k} .. h_{1024k+1023} from its own stream, so a longer
   prefix extends a shorter one. The cache grows only by publishing a
   new array; a published array is never written. *)
let gen_block = 1024

let generator_block k =
  let d = Drbg.create (Printf.sprintf "shuffle-generators|%d" k) in
  (* x + 2 in [2, p - 2]: its square is a subgroup member other than 1 *)
  Group.elts_of_ints
    (Array.map
       (fun x -> (x + 2) * (x + 2) mod Group.p)
       (Drbg.uniform_array d (Group.p - 3) gen_block))

type generators = { h : Group.elt array; h0_tab : Group.precomp }

let cache =
  let h = generator_block 0 in
  Atomic.make { h; h0_tab = Group.precomp h.(0) }

(* h_0 .. h_n, at least *)
let generators n =
  let cur = Atomic.get cache in
  let have = Array.length cur.h / gen_block in
  let need = (n / gen_block) + 1 in
  if need <= have then cur
  else begin
    let blocks = List.init (need - have) (fun k -> generator_block (have + k)) in
    let grown = { cur with h = Array.concat (cur.h :: blocks) } in
    Atomic.set cache grown;
    grown
  end

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

(* e: one weight lane per slot, from a transcript over the statement
   and the permutation commitment *)
let e_challenges pk ~input ~output u =
  let digest =
    Transcript.(
      create "shuffle|" |> elt pk |> ciphertexts input |> ciphertexts output |> elts u |> digest)
  in
  (digest, Batch_verify.weights ~context:"shuffle-e" ~digest (Array.length u))

(* v: the digest over the e digest and every commitment *)
let v_digest e_digest ~b ~b' ~a' ~c' ~d' ~(f' : Elgamal.ciphertext) =
  Transcript.(
    create e_digest |> elts b |> elts b' |> elt a' |> elt c' |> elt d' |> elt f'.c1
    |> elt f'.c2 |> digest)

let inner a b =
  let acc = ref Group.zero_exp in
  Array.iteri (fun i x -> acc := Group.exp_add !acc (Group.exp_mul x b.(i))) a;
  !acc

let shuffle ?tab drbg pk input =
  let n = Array.length input in
  let tab = match tab with Some t -> t | None -> Group.precomp pk in
  let { h; h0_tab } = generators n in
  (* randomness prepass: pi and r first, so the output vector depends
     on them alone; then s, b, beta, epsilon and alpha, gamma, delta,
     phi in one read *)
  let pi = random_perm drbg n in
  let r = Group.random_exps drbg n in
  let rand = Group.random_exps drbg ((4 * n) + 4) in
  let s j = rand.(j) and b i = rand.(n + i) and beta i = rand.((2 * n) + i) in
  let eps = Array.sub rand (3 * n) n in
  let alpha = rand.(4 * n) and gamma = rand.((4 * n) + 1) in
  let delta = rand.((4 * n) + 2) and phi = rand.((4 * n) + 3) in
  (* one pooled pass writes the output and the commitment; writes are
     disjoint per index since pi is a permutation *)
  let output = Array.make n { Elgamal.c1 = Group.one; c2 = Group.one } in
  let u = Array.make n Group.one in
  Parallel.parallel_for n (fun i ->
      let j = pi.(i) in
      output.(i) <- Elgamal.mul (Elgamal.encrypt_with ~tab ~r:r.(i) pk Elgamal.one) input.(j);
      u.(j) <- Group.mul (Group.pow_g (s j)) h.(i + 1));
  let e_digest, e = e_challenges pk ~input ~output u in
  let e' = Array.init n (fun i -> e.(pi.(i))) in
  (* B_i = g^{d_i} h_0^{P_i} in closed form, with d_i = b_i + e'_i d_{i-1}
     and P_i = e'_1 ... e'_i; B'_i = g^{beta_i} B_{i-1}^{eps_i} likewise *)
  let d = Array.make n Group.zero_exp and pp = Array.make n Group.one_exp in
  for i = 0 to n - 1 do
    let dprev = if i = 0 then Group.zero_exp else d.(i - 1) in
    let pprev = if i = 0 then Group.one_exp else pp.(i - 1) in
    d.(i) <- Group.exp_add (b i) (Group.exp_mul e'.(i) dprev);
    pp.(i) <- Group.exp_mul pprev e'.(i)
  done;
  let bs = Array.make n Group.one and bs' = Array.make n Group.one in
  Parallel.parallel_for n (fun i ->
      let dprev = if i = 0 then Group.zero_exp else d.(i - 1) in
      let pprev = if i = 0 then Group.one_exp else pp.(i - 1) in
      bs.(i) <- Group.mul (Group.pow_g d.(i)) (Group.pow_precomp h0_tab pp.(i));
      bs'.(i) <-
        Group.mul
          (Group.pow_g (Group.exp_add (beta i) (Group.exp_mul eps.(i) dprev)))
          (Group.pow_precomp h0_tab (Group.exp_mul eps.(i) pprev)));
  let a' = Group.mul (Group.pow_g alpha) (Group.multi_exp ~bases:(Array.sub h 1 n) ~exps:eps) in
  let c' = Group.pow_g gamma and d' = Group.pow_g delta in
  let neg_phi = Group.exp_neg phi in
  let f' =
    {
      Elgamal.c1 =
        Group.mul (Group.pow_g neg_phi)
          (Group.multi_exp ~bases:(Array.map (fun ct -> ct.Elgamal.c1) output) ~exps:eps);
      c2 =
        Group.mul (Group.pow_tab ~tab pk neg_phi)
          (Group.multi_exp ~bases:(Array.map (fun ct -> ct.Elgamal.c2) output) ~exps:eps);
    }
  in
  let v = Group.exp_of_digest (v_digest e_digest ~b:bs ~b':bs' ~a' ~c' ~d' ~f') in
  let resp x nonce = Group.exp_add (Group.exp_mul v x) nonce in
  let sum_s = ref Group.zero_exp in
  for j = 0 to n - 1 do
    sum_s := Group.exp_add !sum_s (s j)
  done;
  let proof =
    {
      u;
      b = bs;
      b' = bs';
      a';
      c';
      d';
      f';
      k_a = resp (inner (Array.sub rand 0 n) e) alpha;
      k_b = Array.init n (fun i -> resp (b i) (beta i));
      k_c = resp !sum_s gamma;
      k_d = resp (if n = 0 then Group.zero_exp else d.(n - 1)) delta;
      k_e = Array.init n (fun i -> resp e'.(i) eps.(i));
      k_f = resp (inner r e') phi;
    }
  in
  (output, proof)

(* The five equations, each checked as one group equation:
     A:  prod u_j^{v e_j} * prod h_i^{-k_E,i} * A' = g^{k_A}
     F:  prod x_j^{v e_j} * prod y_i^{-k_E,i} * F' = E(1; -k_F)  (c1 and c2)
     C:  (prod u_j / prod h_i)^v * C' = g^{k_C}
     D:  (B_n / h_0^{prod e})^v * D' = g^{k_D}
     B:  B_i^v * B'_i = g^{k_B,i} * B_{i-1}^{k_E,i}, for every i.
   A and both F components share one exponent vector. The n chain
   equations fold into one with Batch_verify weights seeded by the v
   digest and the responses: B_i appears in equations i and i+1, so
   the fold has 2n + 1 terms (B, B', h_0). *)
let verify ?tab pk ~input ~output p =
  let n = Array.length input in
  Array.length output = n
  && Array.length p.u = n
  && Array.length p.b = n
  && Array.length p.b' = n
  && Array.length p.k_b = n
  && Array.length p.k_e = n
  &&
  let tab = match tab with Some t -> t | None -> Group.precomp pk in
  let { h; h0_tab } = generators n in
  let e_digest, e = e_challenges pk ~input ~output p.u in
  let vd = v_digest e_digest ~b:p.b ~b':p.b' ~a':p.a' ~c':p.c' ~d':p.d' ~f':p.f' in
  let v = Group.exp_of_digest vd in
  let eq lhs rhs = Group.elt_to_int lhs = Group.elt_to_int rhs in
  let prod_u = Array.fold_left Group.mul Group.one p.u in
  let prod_h = ref Group.one and prod_e = ref Group.one_exp in
  for i = 0 to n - 1 do
    prod_h := Group.mul !prod_h h.(i + 1);
    prod_e := Group.exp_mul !prod_e e.(i)
  done;
  let b_n = if n = 0 then h.(0) else p.b.(n - 1) in
  eq (Group.mul (Group.pow (Group.div prod_u !prod_h) v) p.c') (Group.pow_g p.k_c)
  && eq
       (Group.mul (Group.pow (Group.div b_n (Group.pow_precomp h0_tab !prod_e)) v) p.d')
       (Group.pow_g p.k_d)
  &&
  let es = Array.make (2 * n) Group.zero_exp and bases = Array.make (2 * n) Group.one in
  for i = 0 to n - 1 do
    es.(i) <- Group.exp_mul v e.(i);
    es.(n + i) <- Group.exp_neg p.k_e.(i)
  done;
  let fold lhs rhs fill =
    for i = 0 to n - 1 do
      bases.(i) <- lhs i;
      bases.(n + i) <- rhs i
    done;
    Group.mul (Group.multi_exp ~bases ~exps:es) fill
  in
  let neg_kf = Group.exp_neg p.k_f in
  eq (fold (fun j -> p.u.(j)) (fun i -> h.(i + 1)) p.a') (Group.pow_g p.k_a)
  && eq
       (fold (fun j -> input.(j).Elgamal.c1) (fun i -> output.(i).Elgamal.c1) p.f'.c1)
       (Group.pow_g neg_kf)
  && eq
       (fold (fun j -> input.(j).Elgamal.c2) (fun i -> output.(i).Elgamal.c2) p.f'.c2)
       (Group.pow_tab ~tab pk neg_kf)
  &&
  let w =
    Batch_verify.weights ~context:"shuffle-chain"
      ~digest:Transcript.(create vd |> exps p.k_b |> exps p.k_e |> digest)
      n
  in
  let bases = Array.concat [ p.b; p.b'; [| h.(0) |] ] in
  let es = Array.make ((2 * n) + 1) Group.zero_exp in
  let rhs = ref Group.zero_exp in
  for i = 0 to n - 1 do
    (* B_{i+1} carries v w_i from its own equation and -w_{i+1} k_E,{i+1}
       as the base of the next; B_0 = h_0 only the latter *)
    let next = if i + 1 < n then Group.exp_mul w.(i + 1) p.k_e.(i + 1) else Group.zero_exp in
    es.(i) <- Group.exp_sub (Group.exp_mul v w.(i)) next;
    es.(n + i) <- w.(i);
    rhs := Group.exp_add !rhs (Group.exp_mul w.(i) p.k_b.(i))
  done;
  if n > 0 then es.(2 * n) <- Group.exp_neg (Group.exp_mul w.(0) p.k_e.(0));
  eq (Group.multi_exp ~bases ~exps:es) (Group.pow_g !rhs)

(* Bus wire form, 5n + 9 ints: the 3n + 5 elements u, B, B', A', C',
   D', F'.c1, F'.c2, then the 2n + 4 exponents k_A, k_B, k_C, k_D, k_E,
   k_F. n follows from the length. *)
let proof_to_ints p =
  let n = Array.length p.u in
  let a = Array.make ((5 * n) + 9) 0 in
  let put_elts off v = Array.iteri (fun i x -> a.(off + i) <- Group.elt_to_int x) v in
  let put_exps off v = Array.iteri (fun i x -> a.(off + i) <- Group.exp_to_int x) v in
  put_elts 0 p.u;
  put_elts n p.b;
  put_elts (2 * n) p.b';
  put_elts (3 * n) [| p.a'; p.c'; p.d'; p.f'.c1; p.f'.c2 |];
  let o = (3 * n) + 5 in
  a.(o) <- Group.exp_to_int p.k_a;
  put_exps (o + 1) p.k_b;
  put_exps (o + n + 1) [| p.k_c; p.k_d |];
  put_exps (o + n + 3) p.k_e;
  a.(o + (2 * n) + 3) <- Group.exp_to_int p.k_f;
  a

(* The claimed n is checked against the length before anything is
   allocated; every element is membership-checked in one batch and
   every exponent must be canonical, in [0, q). *)
let proof_of_ints a =
  let len = Array.length a in
  let n = (len - 9) / 5 in
  if len < 9 || len <> (5 * n) + 9 then None
  else
    match Group.elts_of_ints (Array.sub a 0 ((3 * n) + 5)) with
    | exception Invalid_argument _ -> None
    | e ->
      let o = (3 * n) + 5 in
      let canonical = ref true in
      for i = o to len - 1 do
        if a.(i) < 0 || a.(i) >= Group.q then canonical := false
      done;
      if not !canonical then None
      else begin
        let exp i = Group.exp_of_int a.(o + i) in
        Some
          {
            u = Array.sub e 0 n;
            b = Array.sub e n n;
            b' = Array.sub e (2 * n) n;
            a' = e.(3 * n);
            c' = e.((3 * n) + 1);
            d' = e.((3 * n) + 2);
            f' = { Elgamal.c1 = e.((3 * n) + 3); c2 = e.((3 * n) + 4) };
            k_a = exp 0;
            k_b = Array.init n (fun i -> exp (1 + i));
            k_c = exp (n + 1);
            k_d = exp (n + 2);
            k_e = Array.init n (fun i -> exp (n + 3 + i));
            k_f = exp ((2 * n) + 3);
          }
      end
