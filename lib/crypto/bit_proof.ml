(* Standard CDS (Cramer–Damgård–Schoenmakers) disjunction of two
   Chaum–Pedersen statements. Statement_i (i in {0,1}):
     log_g c1 = log_pk (c2 / m_i)  with m_0 = 1, m_1 = marker.
   The prover simulates the false branch with a chosen sub-challenge
   and answers the true branch honestly; the sub-challenges must sum to
   the Fiat–Shamir hash of the whole transcript. *)

type branch = {
  a1 : Group.elt;
  a2 : Group.elt;
  e : Group.exp;
  z : Group.exp;
}

type t = { b0 : branch; b1 : branch }

let message_of = function false -> Elgamal.one | true -> Elgamal.marker

let challenge ~pk ~ct ~(b0 : Group.elt * Group.elt) ~(b1 : Group.elt * Group.elt) =
  Transcript.(
    create "bitproof|" |> elt pk |> elt ct.Elgamal.c1 |> elt ct.Elgamal.c2 |> elt (fst b0)
    |> elt (snd b0) |> elt (fst b1) |> elt (snd b1) |> challenge)

(* y_i = c2 / m_i: the element whose log base pk must match log_g c1. *)
let y_of ct bit = Group.div ct.Elgamal.c2 (message_of bit)

let simulate_with ?pk_tab ~e ~z ~pk ~ct ~bit () =
  let y = y_of ct bit in
  (* a1 = g^z / c1^e, a2 = pk^z / y^e makes the verification equations
     hold for the chosen (e, z) *)
  let a1 = Group.div (Group.pow_g z) (Group.pow ct.Elgamal.c1 e) in
  let a2 = Group.div (Group.pow_tab ?tab:pk_tab pk z) (Group.pow y e) in
  { a1; a2; e; z }

(* All randomness a proven bit encryption consumes, drawn by the caller
   in a sequential prepass before the pure arithmetic goes to the
   domain pool. *)
type rand = { r : Group.exp; fake_e : Group.exp; fake_z : Group.exp; k : Group.exp }

let prove_with ?pk_tab ~pk ~r ~bit ~fake_e ~fake_z ~k ct =
  let fake = simulate_with ?pk_tab ~e:fake_e ~z:fake_z ~pk ~ct ~bit:(not bit) () in
  let real_a1 = Group.pow_g k and real_a2 = Group.pow_tab ?tab:pk_tab pk k in
  let commitments =
    if bit then ((fake.a1, fake.a2), (real_a1, real_a2))
    else ((real_a1, real_a2), (fake.a1, fake.a2))
  in
  let e_total = challenge ~pk ~ct ~b0:(fst commitments) ~b1:(snd commitments) in
  let e_real = Group.exp_sub e_total fake.e in
  let z_real = Group.exp_add k (Group.exp_mul e_real r) in
  let real = { a1 = real_a1; a2 = real_a2; e = e_real; z = z_real } in
  if bit then { b0 = fake; b1 = real } else { b0 = real; b1 = fake }

let prove drbg ~pk ~r ~bit ct =
  let fake_e = Group.random_exp drbg in
  let fake_z = Group.random_exp drbg in
  let k = Group.random_exp drbg in
  prove_with ~pk ~r ~bit ~fake_e ~fake_z ~k ct

let branch_ok ?pk_tab ~pk ~ct ~bit { a1; a2; e; z } =
  let y = y_of ct bit in
  Group.elt_to_int (Group.pow_g z)
  = Group.elt_to_int (Group.mul a1 (Group.pow ct.Elgamal.c1 e))
  && Group.elt_to_int (Group.pow_tab ?tab:pk_tab pk z)
     = Group.elt_to_int (Group.mul a2 (Group.pow y e))

let verify ?pk_tab ~pk ct { b0; b1 } =
  let e_total = challenge ~pk ~ct ~b0:(b0.a1, b0.a2) ~b1:(b1.a1, b1.a2) in
  Group.exp_to_int (Group.exp_add b0.e b1.e) = Group.exp_to_int e_total
  && branch_ok ?pk_tab ~pk ~ct ~bit:false b0
  && branch_ok ?pk_tab ~pk ~ct ~bit:true b1

(* Batched verification (Batch_verify). Each proof carries four group
   equations — per branch b (0/1), with y_0 = c2 and y_1 = c2/marker:
     g^{z_b}  = a1_b * c1^{e_b}        (g side)
     pk^{z_b} = a2_b * y_b^{e_b}       (pk side)
   plus the exact scalar constraint e_0 + e_1 = H(transcript), which is
   cheap and stays per-proof. Two weight lanes (w0 for branch 0, w1 for
   branch 1) fold the group equations into two multi-exponentiations:
     g^{sum w0 z0 + w1 z1}
       = prod a1_0^{w0} * a1_1^{w1} * c1^{w0 e0 + w1 e1}
     pk^{sum w0 z0 + w1 z1}
       = prod a2_0^{w0} * a2_1^{w1} * c2^{w0 e0 + w1 e1}
         * marker^{-sum w1 e1}
   (y_1^{w1 e1} = c2^{w1 e1} * marker^{-w1 e1}; the c2 factors merge
   per proof and the marker factors merge into one global term.) The
   sides are checked separately, so they share the lanes (Batch_verify)
   and with them the exponents and the left-hand scalar. The weight
   seed binds (e_total, e0, z0, z1) per proof: e_total hashes pk, the
   ciphertext and all four commitments, so by collision resistance
   those four scalars bind the whole message. *)
let verify_batch ?pk_tab ~pk pairs =
  let n = Array.length pairs in
  if n = 0 then Batch_verify.Accepted
  else begin
    (* Fiat–Shamir hashes are the dominant per-proof cost: pool them *)
    let e_totals =
      Parallel.parallel_init n (fun i ->
          let ct, { b0; b1 } = pairs.(i) in
          challenge ~pk ~ct ~b0:(b0.a1, b0.a2) ~b1:(b1.a1, b1.a2))
    in
    let sums_ok = ref true in
    for i = 0 to n - 1 do
      let _, { b0; b1 } = pairs.(i) in
      if Group.exp_to_int (Group.exp_add b0.e b1.e) <> Group.exp_to_int e_totals.(i)
      then sums_ok := false
    done;
    let folded () =
      let digest =
        let t = Transcript.create "" in
        Array.iteri
          (fun i (_, { b0; b1 }) ->
            ignore Transcript.(exp e_totals.(i) t |> exp b0.e |> exp b0.z |> exp b1.z))
          pairs;
        Transcript.digest t
      in
      let w = Batch_verify.weights ~context:"bitproof" ~digest (2 * n) in
      let w0 = Array.sub w 0 n and w1 = Array.sub w n n in
      let s = ref Group.zero_exp in
      let marker_e = ref Group.zero_exp in
      let bases = Array.make ((3 * n) + 1) Group.one in
      let exps = Array.make ((3 * n) + 1) Group.zero_exp in
      for i = 0 to n - 1 do
        let ct, { b0; b1 } = pairs.(i) in
        s :=
          Group.exp_add !s
            (Group.exp_add (Group.exp_mul w0.(i) b0.z) (Group.exp_mul w1.(i) b1.z));
        marker_e := Group.exp_add !marker_e (Group.exp_mul w1.(i) b1.e);
        bases.(3 * i) <- b0.a1;
        exps.(3 * i) <- w0.(i);
        bases.((3 * i) + 1) <- b1.a1;
        exps.((3 * i) + 1) <- w1.(i);
        bases.((3 * i) + 2) <- ct.Elgamal.c1;
        exps.((3 * i) + 2) <-
          Group.exp_add (Group.exp_mul w0.(i) b0.e) (Group.exp_mul w1.(i) b1.e)
      done;
      (* the g side has no marker term: its last base stays the identity *)
      exps.(3 * n) <- Group.exp_neg !marker_e;
      Group.elt_to_int (Group.pow_g !s) = Group.elt_to_int (Group.multi_exp ~bases ~exps)
      &&
      begin
        for i = 0 to n - 1 do
          let ct, { b0; b1 } = pairs.(i) in
          bases.(3 * i) <- b0.a2;
          bases.((3 * i) + 1) <- b1.a2;
          bases.((3 * i) + 2) <- ct.Elgamal.c2
        done;
        bases.(3 * n) <- Elgamal.marker;
        Group.elt_to_int (Group.pow_tab ?tab:pk_tab pk !s)
        = Group.elt_to_int (Group.multi_exp ~bases ~exps)
      end
    in
    if !sums_ok && folded () then Batch_verify.Accepted
    else
      (* single-proof fallback: name exactly which slots fail *)
      Batch_verify.outcome_of_singles
        (Parallel.parallel_init n (fun i ->
             let ct, pr = pairs.(i) in
             verify ?pk_tab ~pk ct pr))
  end

let encrypt_bit_proven_with ?pk_tab ~pk { r; fake_e; fake_z; k } bit =
  let ct = Elgamal.encrypt_with ?tab:pk_tab ~r pk (message_of bit) in
  (ct, prove_with ?pk_tab ~pk ~r ~bit ~fake_e ~fake_z ~k ct)

(* Bus wire form: a flat int array so the serialization layer stays
   ignorant of group internals while membership is still re-checked on
   the way back in. *)

let branch_ints b =
  [| Group.elt_to_int b.a1; Group.elt_to_int b.a2;
     Group.exp_to_int b.e; Group.exp_to_int b.z |]

let to_ints { b0; b1 } = Array.append (branch_ints b0) (branch_ints b1)

let of_ints a =
  if Array.length a <> 8 then None
  else
    (* the four elements fill one four-lane membership check *)
    match Group.elts_of_ints [| a.(0); a.(1); a.(4); a.(5) |] with
    | els ->
      let branch k off =
        {
          a1 = els.(2 * k);
          a2 = els.((2 * k) + 1);
          e = Group.exp_of_int a.(off + 2);
          z = Group.exp_of_int a.(off + 3);
        }
      in
      Some { b0 = branch 0 0; b1 = branch 1 4 }
    | exception Invalid_argument _ -> None
