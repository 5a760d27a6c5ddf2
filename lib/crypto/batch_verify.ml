(* Random-linear-combination (RLC) batch verification substrate.

   N equations L_i = R_i over the order-q subgroup fold into one check
   prod L_i^{w_i} = prod R_i^{w_i} with weights uniform in [1, q). If
   any single equation fails, the fold holds with probability at most
   1/q over the weights, so a batch accept is wrong with probability
   ~1/q per folded check (DESIGN.md §3c).

   The weights come from a dedicated verifier DRBG seeded by the digest
   of a Transcript over the whole statement and proof: they are fixed
   only after the prover's entire message (Fiat–Shamir), they consume
   nothing from any party DRBG (the protocol's draw order and the
   deploy-mode byte identity are untouched), and the same transcript
   gives the same weights on any run, pool size or host.

   One weight vector serves every fold that is checked on its own
   (a shuffle link's c1 and c2, a bit proof's g and pk sides): each
   fold is its own accept test, and a false equation in it makes that
   fold fail with probability >= 1 - 1/q whatever the other fold does
   with the same weights. Only equations summed into
   one fold need independent weights (a bit proof's two branches).

   The batch verifiers live with their proof systems; each keeps its
   single-proof verifier as the fallback, so a failed fold names
   exactly the proofs that fail — what `tormeasure audit` and the blame
   path report. *)

type outcome = Accepted | Rejected of int list

let weights ~context ~digest n =
  if n < 0 then invalid_arg "Batch_verify.weights: negative count";
  let drbg = Drbg.create ~personalization:("batch-verify|" ^ context) digest in
  (* one bulk draw, nonzero by construction *)
  Array.map (fun v -> Group.exp_of_int (1 + v)) (Drbg.uniform_array drbg (Group.q - 1) n)

let outcome_of_singles oks =
  let bad = ref [] in
  for i = Array.length oks - 1 downto 0 do
    if not oks.(i) then bad := i :: !bad
  done;
  match !bad with [] -> Accepted | bad -> Rejected bad
