type schnorr_proof = { commitment : Group.elt; response : Group.exp }

let schnorr_challenge ~public ~commitment ~context =
  Transcript.(
    create "schnorr|" |> string context |> string "|" |> elt public |> elt commitment
    |> challenge)

let schnorr_prove drbg ~secret ~context =
  let public = Group.pow_g secret in
  let k = Group.random_exp drbg in
  let commitment = Group.pow_g k in
  let c = schnorr_challenge ~public ~commitment ~context in
  let response = Group.exp_add k (Group.exp_mul c secret) in
  { commitment; response }

let schnorr_verify ~public ~context { commitment; response } =
  let c = schnorr_challenge ~public ~commitment ~context in
  Group.elt_to_int (Group.pow_g response)
  = Group.elt_to_int (Group.mul commitment (Group.pow public c))

type dleq_proof = { a1 : Group.elt; a2 : Group.elt; z : Group.exp }

let dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context =
  Transcript.(
    create "dleq|" |> string context |> string "|" |> elt public1 |> elt base2
    |> elt public2 |> elt a1 |> elt a2 |> challenge)

let dleq_prove_with ?public2 ?a2 ~public1 ~k ~secret ~base2 ~context () =
  (* callers that already computed base2^secret (a decryption share)
     or base2^k pass them in and skip the recomputation *)
  let public2 = match public2 with Some v -> v | None -> Group.pow base2 secret in
  let a2 = match a2 with Some v -> v | None -> Group.pow base2 k in
  let a1 = Group.pow_g k in
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  let z = Group.exp_add k (Group.exp_mul c secret) in
  { a1; a2; z }

let dleq_prove drbg ~secret ~base2 ~context =
  dleq_prove_with ~public1:(Group.pow_g secret) ~k:(Group.random_exp drbg) ~secret ~base2
    ~context ()

let dleq_verify ?public1_tab ~public1 ~base2 ~public2 ~context { a1; a2; z } =
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  Group.elt_to_int (Group.pow_g z)
  = Group.elt_to_int (Group.mul a1 (Group.pow_tab ?tab:public1_tab public1 c))
  && Group.elt_to_int (Group.pow base2 z)
     = Group.elt_to_int (Group.mul a2 (Group.pow public2 c))

(* Batched DLEQ verification (Batch_verify). Per proof i with statement
   (public1, base2_i, public2_i) and challenge c_i, the two equations
     g^{z_i}       = a1_i * public1^{c_i}
     base2_i^{z_i} = a2_i * public2_i^{c_i}
   fold under one weight vector w (the folds are checked separately, so
   sharing it costs no soundness; see Batch_verify) into
     g^{sum w z}  = (prod a1^w) * public1^{sum w c}        and
     prod base2^{w z} * a2^{-w} * public2^{-w c} = 1.
   public1 is the prover's long-lived key, so its folded term runs on
   the caller's fixed-base table; everything varying goes through
   Group.multi_exp. The weight transcript hashes (c_i, z_i): c_i is
   itself the hash of (context, public1, base2_i, public2_i, a1_i,
   a2_i), so by collision resistance the pair binds the whole message
   without re-hashing the vectors. *)
let dleq_verify_batch ?public1_tab ~public1 ~context ~statements proofs =
  let n = Array.length proofs in
  if Array.length statements <> n then
    invalid_arg "Sigma.dleq_verify_batch: length mismatch";
  if n = 0 then Batch_verify.Accepted
  else begin
    (* per-proof Fiat–Shamir challenges: pure per index, pool-friendly *)
    let cs =
      Parallel.parallel_init n (fun i ->
          let base2, public2 = statements.(i) in
          let { a1; a2; _ } = proofs.(i) in
          dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context)
    in
    let digest =
      let t = Transcript.(create "" |> elt public1) in
      Array.iteri (fun i c -> ignore Transcript.(exp c t |> exp proofs.(i).z)) cs;
      Transcript.digest t
    in
    let w = Batch_verify.weights ~context:("dleq|" ^ context) ~digest n in
    let bases = Array.make (3 * n) Group.one in
    let exps = Array.make (3 * n) Group.zero_exp in
    let sum_wz = ref Group.zero_exp and sum_wc = ref Group.zero_exp in
    for i = 0 to n - 1 do
      let base2, public2 = statements.(i) in
      let pr = proofs.(i) in
      let wz = Group.exp_mul w.(i) pr.z and wc = Group.exp_mul w.(i) cs.(i) in
      sum_wz := Group.exp_add !sum_wz wz;
      sum_wc := Group.exp_add !sum_wc wc;
      bases.(3 * i) <- base2;
      exps.(3 * i) <- wz;
      bases.((3 * i) + 1) <- pr.a2;
      exps.((3 * i) + 1) <- Group.exp_neg w.(i);
      bases.((3 * i) + 2) <- public2;
      exps.((3 * i) + 2) <- Group.exp_neg wc
    done;
    if
      Group.elt_to_int (Group.pow_g !sum_wz)
      = Group.elt_to_int
          (Group.mul
             (Group.multi_exp ~bases:(Array.map (fun pr -> pr.a1) proofs) ~exps:w)
             (Group.pow_tab ?tab:public1_tab public1 !sum_wc))
      && Group.elt_to_int (Group.multi_exp ~bases ~exps) = Group.elt_to_int Group.one
    then Batch_verify.Accepted
    else
      (* single-proof fallback: name exactly which proofs fail *)
      Batch_verify.outcome_of_singles
        (Parallel.parallel_init n (fun i ->
             let base2, public2 = statements.(i) in
             dleq_verify ?public1_tab ~public1 ~base2 ~public2 ~context proofs.(i)))
  end
