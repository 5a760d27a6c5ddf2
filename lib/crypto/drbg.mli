(** HMAC-DRBG (NIST SP 800-90A) over SHA-256: the deterministic random
    bit generator used wherever protocol parties need randomness that is
    reproducible from a seed but cryptographically expanded (blinding
    shares, ElGamal randomness, shuffle permutations). *)

type t

val create : ?personalization:string -> string -> t
(** [create seed] instantiates the DRBG from entropy-input [seed]. *)

val generate : t -> int -> string
(** [generate t n] produces [n] pseudorandom bytes and advances the state. *)

val uniform : t -> int -> int
(** [uniform t n] draws an unbiased integer in [0, n). *)

val uniform_array : t -> int -> int -> int array
(** [uniform_array t n count] draws [count] independent unbiased
    integers in [0, n) from a single bulk [generate] call. A
    {!uniform} call costs 8 SHA-256 compressions; a bulk lane costs
    1/4 of one when [n <= 2^30] (4-byte lanes) and 1/2 otherwise, since
    the 6-compression post-generate update is paid once per call. The
    stream consumption differs from repeated {!uniform}: a draw site
    uses one pattern and keeps it (determinism is about program order;
    DESIGN.md §3c). *)

val uniform_lanes : t -> (int -> int) -> int -> int array
(** [uniform_lanes t bound count]: like {!uniform_array} but lane [i]
    is uniform in [0, bound i) — bulk Fisher–Yates draws and
    interleaved bit/exponent prepasses. Every bound must be positive;
    rejected lanes (probability ≤ bound/2^32 per lane) fall back to
    fresh single draws, deterministically for a fixed seed. *)
