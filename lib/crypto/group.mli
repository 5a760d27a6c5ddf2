(** A Schnorr group: the order-q subgroup of Z_p^* for a safe prime
    p = 2q + 1.

    The deployed PrivCount/PSC use 2048-bit moduli; this simulation group
    uses a 31-bit safe prime so that all arithmetic fits in native OCaml
    ints (products < 2^62). The protocol logic layered on top is
    unchanged; only the parameter size is simulation-scale, and this is
    documented in DESIGN.md. *)

type elt = private int
(** A subgroup element (quadratic residue mod p). *)

type exp = private int
(** An exponent mod q. *)

val p : int
(** Safe prime modulus, 2147483579. *)

val q : int
(** Subgroup order (p - 1) / 2, prime. *)

val g : elt
(** Fixed generator of the order-q subgroup. *)

val one : elt
val zero_exp : exp
val one_exp : exp

val elt_of_int : int -> elt
(** Checked injection: raises [Invalid_argument] unless the value is in
    the subgroup ({!is_member}). *)

val elts_of_ints : int array -> elt array
(** Batched {!elt_of_int}: checks every value four at a time through
    the four-lane membership chain and raises the same
    [Invalid_argument] as {!elt_of_int} if any is not in the subgroup.
    The result is the argument itself, not a copy: the caller hands the
    array over and must not write to it afterwards. Wire decoders read
    a whole vector's raw ints into a fresh array and check it with one
    call. Costs are in DESIGN.md §3c. *)

val exp_of_int : int -> exp
(** Reduces mod q (accepts any int, including negatives). *)

val elt_to_int : elt -> int
val exp_to_int : exp -> int

val mul : elt -> elt -> elt
val inv : elt -> elt
val div : elt -> elt -> elt
val pow : elt -> exp -> elt
val pow_g : exp -> elt
(** [pow_g x] = g^x, via the fixed-base table for g. *)

type precomp
(** Fixed-base exponentiation table (radix 2^8, 1024 group elements).
    Build one per long-lived base — the generator's table is built at
    startup and already backs {!pow_g}; callers build one per joint
    public key per round. *)

val precomp : elt -> precomp
(** [precomp b] tabulates b^(d * 2^(8w)) for all 8-bit digits d and the
    four windows w covering Z_q. Costs ~1020 multiplications; amortises
    after ~25 exponentiations of the same base. *)

val pow_precomp : precomp -> exp -> elt
(** [pow_precomp t e] = b^e for the base b [t] was built for, in three
    modular multiplications. Agrees with {!pow} on every exponent. *)

val pow_tab : ?tab:precomp -> elt -> exp -> elt
(** [pow_tab ?tab b e] = b^e, via the table when one is given. Raises
    [Invalid_argument] if [tab] was built for a different base — using
    a stale table silently computes the wrong power otherwise. *)

val multi_exp : bases:elt array -> exps:exp array -> elt
(** Pippenger-style multi-exponentiation: the product of
    [bases.(i) ^ exps.(i)] over all [i] (the identity on empty input).
    Windowed bucket accumulation costs ~4 modular multiplications per
    term at large n versus ~45 for exponentiating each term; batches
    below the internal cutover fall back to the naive fold, and terms
    with a long-lived fixed base (g, a public key) are cheaper still on
    a {!precomp} table — batch verification combines all three. Large
    inputs are folded in fixed-size chunks on the domain pool; the
    result is identical at any pool size. Raises [Invalid_argument] on
    a length mismatch. *)

val batch_inv : elt array -> elt array
(** Montgomery batch inversion: [batch_inv xs] is the array of
    pointwise inverses, computed with a single exponentiation and
    3(n-1) multiplications instead of n exponentiations. Returns [[||]]
    on empty input. *)

val exp_add : exp -> exp -> exp
val exp_sub : exp -> exp -> exp
val exp_mul : exp -> exp -> exp
val exp_neg : exp -> exp
val exp_inv : exp -> exp
(** Multiplicative inverse mod q (q is prime). *)

val is_member : int -> bool
(** Membership test for the order-q subgroup: [1 <= x < p] and
    [x^q = 1] (Euler's criterion), any int accepted. One element at a
    time by square-and-multiply; vectors go through {!elts_of_ints},
    whose four-lane addition chain the startup self-check holds to
    this test. *)

type lanes = { l0 : elt; l1 : elt; l2 : elt; l3 : elt }

val pow_lanes : elt -> exp -> elt -> exp -> elt -> exp -> elt -> exp -> lanes
(** [pow_lanes b0 e0 b1 e1 b2 e2 b3 e3] is [{l0 = pow b0 e0; ...;
    l3 = pow b3 e3}]: four independent exponentiations interleaved, so
    their multiply chains overlap (costs in DESIGN.md §3c). The kernel
    is branchless — each exponent bit selects a multiplication by [b]
    or by 1 — and always runs 30 steps. Vector phases call it on four
    (base, exponent) lanes at a time, padding a short tail with any
    lane. *)

val random_exp : Drbg.t -> exp
(** Uniform exponent in [0, q). *)

val random_exps : Drbg.t -> int -> exp array
(** [random_exps drbg count]: [count] uniform exponents from one bulk
    DRBG read ({!Drbg.uniform_array}) — the sequential-prepass form for
    vector phases. Consumes the stream differently from [count]
    {!random_exp} calls; a draw site uses one pattern and keeps it. *)

val random_elt : Drbg.t -> elt

val exp_of_digest : string -> exp
(** Fiat–Shamir: map a SHA-256 digest (at least 8 bytes) to a challenge
    exponent. {!Transcript.challenge} is this over a streamed digest. *)

val hash_to_exp : string -> exp
(** [exp_of_digest (Sha256.digest s)]. *)

val hash_to_elt : string -> elt
(** Hash to a subgroup element (square of a hash-derived residue). *)
