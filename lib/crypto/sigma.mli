(** Non-interactive sigma protocols (Fiat–Shamir over SHA-256).

    PSC's computation parties prove correctness of their partial
    decryptions with Chaum–Pedersen discrete-log-equality proofs, and
    knowledge of their private keys with Schnorr proofs, so a single
    honest verifier can detect a misbehaving party. *)

type schnorr_proof = { commitment : Group.elt; response : Group.exp }

val schnorr_prove : Drbg.t -> secret:Group.exp -> context:string -> schnorr_proof
(** Prove knowledge of [secret] where the statement is g^secret. *)

val schnorr_verify : public:Group.elt -> context:string -> schnorr_proof -> bool

type dleq_proof = { a1 : Group.elt; a2 : Group.elt; z : Group.exp }

val dleq_prove :
  Drbg.t -> secret:Group.exp -> base2:Group.elt -> context:string -> dleq_proof
(** Prove log_g(g^secret) = log_{base2}(base2^secret), i.e. that the
    same exponent links (g, g^x) and (base2, base2^x). *)

val dleq_prove_with :
  ?public2:Group.elt -> ?a2:Group.elt -> public1:Group.elt ->
  k:Group.exp -> secret:Group.exp -> base2:Group.elt -> context:string -> unit ->
  dleq_proof
(** {!dleq_prove} with a pre-drawn commitment nonce [k] — the pure
    arithmetic half, safe to run on the domain pool after a sequential
    DRBG prepass. [public1] is [g^secret], the prover's public key,
    computed once per prover rather than once per proof. [?public2] is
    [base2^secret] when the caller already holds it (a decryption
    share), skipping one full exponentiation; [?a2] is the commitment
    [base2^k], likewise (a vector prover computes both on
    {!Group.pow_lanes}). *)

val dleq_verify :
  ?public1_tab:Group.precomp ->
  public1:Group.elt -> base2:Group.elt -> public2:Group.elt -> context:string ->
  dleq_proof -> bool
(** [?public1_tab] is a fixed-base table for [public1] (the prover's
    long-lived public key), worthwhile when verifying many proofs from
    the same party; raises [Invalid_argument] on a base mismatch. *)

val dleq_verify_batch :
  ?public1_tab:Group.precomp ->
  public1:Group.elt -> context:string ->
  statements:(Group.elt * Group.elt) array ->
  dleq_proof array -> Batch_verify.outcome
(** Batched {!dleq_verify} for one prover: [statements.(i)] is
    [(base2_i, public2_i)] for [proofs.(i)]. The 2n verification
    equations fold, under one weight lane, into two
    random-linear-combination checks over
    {!Group.multi_exp} (~6 multiplications per proof instead of two
    full exponentiations); on a failed fold the single-proof fallback
    re-runs so the outcome names the offending indices. Accepts iff
    every proof verifies individually, up to the ~1/q batch soundness
    error (DESIGN.md §3c). *)
