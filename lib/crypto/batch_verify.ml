(* Random-linear-combination (RLC) batch verification substrate.

   N equations L_i = R_i over the order-q subgroup fold into one check
   prod L_i^{w_i} = prod R_i^{w_i} with weights uniform in [1, q). If
   any single equation fails, the fold holds with probability at most
   1/q over the weights, so a batch accept is wrong with probability
   ~1/q per folded check (DESIGN.md §3c).

   The weights are SHA-256 in counter mode over the digest of a
   Transcript over the whole statement and proof: they are fixed only
   after the prover's entire message (Fiat–Shamir), they consume
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

(* Block i of the weight stream is
   SHA-256(SHA-256("batch-verify|" ^ context) || digest || be32(i)).
   The first 64 bytes are one block, absorbed once into a midstate, so
   each counter block costs one compression and yields 8 words. A word
   w at most [limit] gives the weight 1 + (w mod (q - 1)), uniform in
   [1, q); a rejected word (probability ~3e-8) is skipped, so every
   prefix of the weights depends on (context, digest) alone. *)
let weights ~context ~digest n =
  if n < 0 then invalid_arg "Batch_verify.weights: negative count";
  if String.length digest <> 32 then invalid_arg "Batch_verify.weights: digest must be 32 bytes";
  let m = Array.make 16 0 in
  Sha256.load_words (Sha256.digest ("batch-verify|" ^ context)) m 0;
  Sha256.load_words digest m 8;
  let mid = Array.make 8 0 in
  Sha256.set_iv mid;
  Sha256.compress_words mid m;
  (* the counter block: be32(i) after the 64-byte first block *)
  m.(0) <- 0;
  Sha256.pad_words m ~len:4 ~total:68;
  let q1 = Group.q - 1 in
  let limit = (1 lsl 32) - 1 - ((1 lsl 32) mod q1) in
  let out = Array.make n Group.one_exp and h = Array.make 8 0 in
  let filled = ref 0 and used = ref 8 in
  while !filled < n do
    if !used = 8 then begin
      Array.blit mid 0 h 0 8;
      Sha256.compress_words h m;
      m.(0) <- m.(0) + 1;
      used := 0
    end;
    let w = h.(!used) in
    incr used;
    if w <= limit then begin
      out.(!filled) <- Group.exp_of_int (1 + (w mod q1));
      incr filled
    end
  done;
  out

let outcome_of_singles oks =
  let bad = ref [] in
  for i = Array.length oks - 1 downto 0 do
    if not oks.(i) then bad := i :: !bad
  done;
  match !bad with [] -> Accepted | bad -> Rejected bad
