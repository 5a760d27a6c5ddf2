(* A PSC computation party. Each CP holds one share of the joint
   ElGamal key and, in pipeline order: appends its encrypted binomial
   noise bits, shuffles and rerandomizes the whole vector (with a
   verifiable-shuffle proof), raises every ciphertext to a fresh secret
   nonzero exponent (destroying everything about the plaintext except
   identity vs non-identity), and finally contributes verifiable partial
   decryptions. *)

type t = {
  id : int;
  priv : Crypto.Elgamal.priv;
  pub : Crypto.Elgamal.pub;
  drbg : Crypto.Drbg.t;
}

let create ~id ~seed =
  let drbg = Crypto.Drbg.create (Printf.sprintf "psc-cp|%d|%d" seed id) in
  let priv, pub = Crypto.Elgamal.keygen drbg in
  { id; priv; pub; drbg }

let public_key t = t.pub
let id t = t.id

let key_proof t =
  Crypto.Sigma.schnorr_prove t.drbg ~secret:t.priv ~context:(Printf.sprintf "psc-key|%d" t.id)

let verify_key_proof ~id ~pub proof =
  Crypto.Sigma.schnorr_verify ~public:pub ~context:(Printf.sprintf "psc-key|%d" id) proof

(* Binomial noise: [flips] fair coins, each encrypted as its own slot
   with a disjunctive bit-validity proof. The count of heads adds to the
   measured cardinality; its mean is publicly subtracted by the
   estimator. Without the proofs a malicious CP could inject non-bit
   plaintexts as "noise" and distort the cardinality while hiding
   behind noise deniability. Randomness comes from one bulk DRBG read,
   five lanes per flip: the coin, then the four proof exponents in
   [Bit_proof.rand]'s field order; the encryptions run on the domain
   pool. *)
let noise_slots ?tab t ~joint ~flips =
  let q = Crypto.Group.q in
  let raw =
    Crypto.Drbg.uniform_lanes t.drbg (fun k -> if k mod 5 = 0 then 2 else q) (5 * flips)
  in
  Parallel.parallel_init flips (fun i ->
      let b = 5 * i in
      let bit = raw.(b) = 1 in
      let e k = Crypto.Group.exp_of_int raw.(b + k) in
      let br =
        { Crypto.Bit_proof.r = e 1; fake_e = e 2; fake_z = e 3; k = e 4 }
      in
      Crypto.Bit_proof.encrypt_bit_proven_with ?pk_tab:tab ~pk:joint br bit)

let shuffle ?tab t ~joint vector = Crypto.Shuffle.shuffle ?tab t.drbg joint vector

(* Rerandomization runs on Group.pow_lanes: two ciphertexts per
   four-lane call, one pair per pool index, so every pool chunk is a
   multiple of four lanes. An odd tail pairs the last slot with itself
   and writes it twice. *)
let iter_pairs n f =
  Parallel.parallel_for ((n + 1) / 2) (fun h ->
      let i = 2 * h in
      f i (min (i + 1) (n - 1)))

let dummy_ct = { Crypto.Elgamal.c1 = Crypto.Group.one; c2 = Crypto.Group.one }

(* Exponent rerandomization: x -> x^k for secret k != 0 per slot.
   Enc(1) stays Enc(1); anything else becomes an encryption of a random
   non-identity element, unlinkable to its original value. *)
let rerandomize_bits t vector =
  let n = Array.length vector in
  let raw = Crypto.Drbg.uniform_array t.drbg (Crypto.Group.q - 1) n in
  let out = Array.make n dummy_ct in
  iter_pairs n (fun i j ->
      let ki = Crypto.Group.exp_of_int (1 + raw.(i)) in
      let kj = Crypto.Group.exp_of_int (1 + raw.(j)) in
      let a = vector.(i) and b = vector.(j) in
      let l =
        Crypto.Group.pow_lanes a.Crypto.Elgamal.c1 ki a.Crypto.Elgamal.c2 ki
          b.Crypto.Elgamal.c1 kj b.Crypto.Elgamal.c2 kj
      in
      out.(i) <- { Crypto.Elgamal.c1 = l.Crypto.Group.l0; c2 = l.Crypto.Group.l1 };
      out.(j) <- { Crypto.Elgamal.c1 = l.Crypto.Group.l2; c2 = l.Crypto.Group.l3 });
  out

type decryption_share = {
  cp_id : int;
  shares : Crypto.Group.elt array;
  proof : Crypto.Sigma.dleq_proof option;
}

(* The folded statement both sides derive (the "composite" DLEQ of
   RFC 9497 §2.2.1). Weights w_i come from a transcript over the CP's
   key, every c1_i and every share_i, so they are fixed only after the
   shares are; the folded base is C = prod c1_i^w_i. The prover's
   folded share is C^x, the verifier's prod share_i^w_i: one DLEQ
   between (g, pk) and (C, folded share) proves every share_i = c1_i^x
   up to a 1/q error (DESIGN.md §3c). *)
let fold ~pub vector shares =
  let c1s = Array.map (fun ct -> ct.Crypto.Elgamal.c1) vector in
  let digest =
    Crypto.Transcript.(
      create "psc-decrypt|" |> elt pub |> elts c1s |> elts shares |> digest)
  in
  let w = Crypto.Batch_verify.weights ~context:"psc-decrypt" ~digest (Array.length vector) in
  (w, Crypto.Group.multi_exp ~bases:c1s ~exps:w)

let decrypt_shares t vector =
  let n = Array.length vector in
  let x = t.priv in
  let shares = Array.make n Crypto.Group.one in
  let c1 i = vector.(i).Crypto.Elgamal.c1 in
  (* four shares per call *)
  Parallel.parallel_for ((n + 3) / 4) (fun h ->
      let i = 4 * h in
      let at k = min (i + k) (n - 1) in
      let l = Crypto.Group.pow_lanes (c1 i) x (c1 (at 1)) x (c1 (at 2)) x (c1 (at 3)) x in
      shares.(i) <- l.Crypto.Group.l0;
      shares.(at 1) <- l.Crypto.Group.l1;
      shares.(at 2) <- l.Crypto.Group.l2;
      shares.(at 3) <- l.Crypto.Group.l3);
  let _, base2 = fold ~pub:t.pub vector shares in
  let proof =
    Crypto.Sigma.dleq_prove_with ~public2:(Crypto.Group.pow base2 x) ~public1:t.pub
      ~k:(Crypto.Group.random_exp t.drbg) ~secret:x ~base2 ~context:"psc-decrypt" ()
  in
  { cp_id = t.id; shares; proof = Some proof }

let verify_decryption ~pub ~vector { shares; proof; _ } =
  match proof with
  | None -> false
  | Some proof ->
    Array.length shares = Array.length vector
    &&
    let w, base2 = fold ~pub vector shares in
    Crypto.Sigma.dleq_verify ~public1:pub ~base2
      ~public2:(Crypto.Group.multi_exp ~bases:shares ~exps:w)
      ~context:"psc-decrypt" proof
