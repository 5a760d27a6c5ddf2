(** Random-linear-combination batch verification: the weight stream and
    outcome vocabulary shared by the batched verifiers in {!Bit_proof}
    and {!Shuffle}. PSC's folded decryption proof draws its fold
    weights from the same stream.

    N verification equations fold into one group equation with random
    weights in [1, q); a batch that contains any invalid proof passes
    the folded check with probability ~1/q. Weights are SHA-256 in
    counter mode over the digest of a {!Transcript} over the statement
    and proof, so they bind the prover's whole message (Fiat–Shamir)
    while consuming nothing from any party DRBG — the protocol's draw
    order and deploy-mode byte identity are untouched. One weight vector serves every fold of an equation
    system that is checked on its own. Soundness argument and cutover
    policy: DESIGN.md §3c. *)

type outcome =
  | Accepted
  | Rejected of int list
      (** indices of the proofs that fail individually — produced by
          the single-proof fallback a failed batch re-runs, so audit
          and blame paths can name the offending proof *)

val weights : context:string -> digest:string -> int -> Group.exp array
(** [weights ~context ~digest n]: [n] weights uniform in [1, q),
    expanded from the 32-byte transcript [digest] under the [context]
    domain separator, one SHA-256 compression per 8 weights. The
    weights for [n] are a prefix of those for any larger count. A fold
    summing k independent equation families per proof draws [k * n]
    and gives each family a slice. Raises [Invalid_argument] on a
    negative [n] or a digest that is not 32 bytes. *)

val outcome_of_singles : bool array -> outcome
(** {!Accepted} when every single-proof verdict is [true], otherwise
    {!Rejected} with the failing indices, ascending. *)
