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

(* Binomial noise: [flips] fair coins, each encrypted as its own slot.
   The count of heads adds to the measured cardinality; its mean is
   publicly subtracted by the estimator. Randomness comes from one bulk
   DRBG read — alternating (bit, exponent) lanes per flip — and the
   encryptions run on the domain pool. *)
let noise_slots ?tab t ~joint ~flips =
  let raw =
    Crypto.Drbg.uniform_lanes t.drbg
      (fun k -> if k land 1 = 0 then 2 else Crypto.Group.q)
      (2 * flips)
  in
  Parallel.parallel_init flips (fun i ->
      let bit = raw.(2 * i) = 1 in
      let r = Crypto.Group.exp_of_int raw.((2 * i) + 1) in
      Crypto.Elgamal.encrypt_with ?tab ~r joint
        (if bit then Crypto.Elgamal.marker else Crypto.Elgamal.one))

(* Same, with a disjunctive bit-validity proof per slot: without these a
   malicious CP could inject non-bit plaintexts as "noise" and distort
   the cardinality while hiding behind noise deniability. Five lanes
   per flip: the coin, then the four proof exponents in
   [Bit_proof.draw_rand] order. *)
let noise_slots_proven ?tab t ~joint ~flips =
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

let shuffle ?tab t ~joint ~rounds vector =
  match rounds with
  | Some rounds -> (
    let output, proof = Crypto.Shuffle.shuffle ~rounds ?tab t.drbg joint vector in
    (output, Some proof))
  | None ->
    (* proof-less fast path for large simulation runs; tests always
       run with proofs on *)
    (Crypto.Shuffle.shuffle_unproven ?tab t.drbg joint vector, None)

(* Exponent rerandomization: x -> x^k for secret k != 0 per slot.
   Enc(1) stays Enc(1); anything else becomes an encryption of a random
   non-identity element, unlinkable to its original value. *)
let rerandomize_bits t vector =
  let raw = Crypto.Drbg.uniform_array t.drbg (Crypto.Group.q - 1) (Array.length vector) in
  Parallel.parallel_init (Array.length vector) (fun i ->
      Crypto.Elgamal.pow vector.(i) (Crypto.Group.exp_of_int (1 + raw.(i))))

type decryption_share = {
  cp_id : int;
  shares : Crypto.Group.elt array;
  proofs : Crypto.Sigma.dleq_proof array option;
}

let decrypt_shares t ?(prove = true) vector =
  let n = Array.length vector in
  if not prove then
    let shares =
      Parallel.parallel_map (fun ct -> Crypto.Elgamal.partial_decrypt t.priv ct) vector
    in
    { cp_id = t.id; shares; proofs = None }
  else begin
    (* commitment nonces from one bulk DRBG read, then a single pooled
       pass computes each share and its proof together — the share is
       the proof's second public point, so it is computed exactly once *)
    let ks = Crypto.Group.random_exps t.drbg n in
    let shares = Array.make n Crypto.Group.one in
    let proofs =
      Array.make n
        { Crypto.Sigma.a1 = Crypto.Group.one; a2 = Crypto.Group.one;
          z = Crypto.Group.zero_exp }
    in
    Parallel.parallel_for n (fun i ->
        let share = Crypto.Elgamal.partial_decrypt t.priv vector.(i) in
        shares.(i) <- share;
        proofs.(i) <-
          Crypto.Sigma.dleq_prove_with ~public2:share ~public1:t.pub ~k:ks.(i)
            ~secret:t.priv ~base2:vector.(i).Crypto.Elgamal.c1 ~context:"psc-decrypt" ());
    { cp_id = t.id; shares; proofs = Some proofs }
  end

let verify_decryption ?pub_tab ~pub ~vector { shares; proofs; _ } =
  match proofs with
  | None -> false
  | Some proofs ->
    Array.length shares = Array.length vector
    && Array.length proofs = Array.length vector
    &&
    let statements =
      Array.init (Array.length vector) (fun i ->
          (vector.(i).Crypto.Elgamal.c1, shares.(i)))
    in
    (match
       Crypto.Sigma.dleq_verify_batch ?public1_tab:pub_tab ~public1:pub
         ~context:"psc-decrypt" ~statements proofs
     with
    | Crypto.Batch_verify.Accepted -> true
    | Crypto.Batch_verify.Rejected _ -> false)
