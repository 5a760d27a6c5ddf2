(** Non-interactive sigma protocols (Fiat–Shamir over SHA-256).

    PSC's computation parties prove correctness of their partial
    decryptions with a Chaum–Pedersen discrete-log-equality proof (one
    per party, over its folded share vector; [Psc.Cp]), and knowledge
    of their private keys with Schnorr proofs, so a single honest
    verifier can detect a misbehaving party. *)

type schnorr_proof = { commitment : Group.elt; response : Group.exp }

val schnorr_prove : Drbg.t -> secret:Group.exp -> context:string -> schnorr_proof
(** Prove knowledge of [secret] where the statement is g^secret. *)

val schnorr_verify : public:Group.elt -> context:string -> schnorr_proof -> bool

type dleq_proof = { a1 : Group.elt; a2 : Group.elt; z : Group.exp }

val dleq_prove_with :
  ?public2:Group.elt -> public1:Group.elt ->
  k:Group.exp -> secret:Group.exp -> base2:Group.elt -> context:string -> unit ->
  dleq_proof
(** Prove log_g(g^secret) = log_{base2}(base2^secret), i.e. that the
    same exponent links (g, g^x) and (base2, base2^x), with the
    pre-drawn commitment nonce [k]. [public1] is [g^secret], the
    prover's public key, computed once per prover rather than once per
    proof. [?public2] is [base2^secret] when the
    caller already holds it (a PSC CP's folded decryption share),
    skipping one full exponentiation. *)

val dleq_verify :
  public1:Group.elt -> base2:Group.elt -> public2:Group.elt -> context:string ->
  dleq_proof -> bool
