(** Verifiable rerandomizing shuffle.

    Each PSC computation party permutes and rerandomizes the vector of
    encrypted counter bits so that no party can link table positions
    across the pipeline. The shuffle is proved correct with a
    Terelius–Wikström proof of shuffle (AFRICACRYPT 2010; the design
    Verificatum implements): a Pedersen commitment to the permutation
    matrix, a product argument over a chain of commitments, and one
    Fiat–Shamir challenge pair. Proving and verifying cost a small
    constant times n, with no round count; a cheater survives with
    probability about n/q per challenge (soundness table in DESIGN.md
    §3c). *)

type proof

val shuffle :
  ?tab:Group.precomp -> Drbg.t -> Elgamal.pub -> Elgamal.ciphertext array ->
  Elgamal.ciphertext array * proof
(** [shuffle drbg pk cts] returns the permuted/rerandomized vector and a
    proof of correctness. [?tab] is a fixed-base table for [pk]; one is
    built on the spot when absent. The permutation and the
    rerandomization exponents are the first two bulk reads from
    [drbg], and the proof's randomness is drawn after them, so the
    output vector depends on those two reads alone: the per-seed
    shuffle-output pins rely on this order. The output and the
    permutation commitment are computed in one pooled pass. *)

val verify :
  ?tab:Group.precomp -> Elgamal.pub -> input:Elgamal.ciphertext array ->
  output:Elgamal.ciphertext array -> proof -> bool
(** Checks the five Terelius–Wikström equations: three 2n-term
    multi-exponentiations sharing one exponent vector, the n chain
    equations folded into one (2n+1)-term multi-exponentiation with
    {!Batch_verify} weights, and two single powers. [?tab] as in
    {!shuffle}. *)

val proof_to_ints : proof -> int array
(** Wire encoding for the message bus, 5n + 9 ints: the 3n + 5 group
    elements (the permutation commitment, the chain B and its
    commitments B', then A', C', D' and the ciphertext F'), then the
    2n + 4 response exponents. *)

val proof_of_ints : int array -> proof option
(** Checked inverse of {!proof_to_ints}: [None] when the length is not
    5n + 9 for some n (checked before anything is allocated), when an
    element is not a subgroup member (one batched check) or when an
    exponent is outside [0, q). A proof rebuilt this way verifies iff
    the original did — including a forged one, so a malicious party
    gains nothing from the serialization hop. *)
