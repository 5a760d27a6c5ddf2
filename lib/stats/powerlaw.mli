(** Power-law (Zipf) popularity machinery for unique-count
    extrapolation (paper §4.3): given that site visits follow a power
    law, infer the network-wide distinct count from the locally observed
    one by searching over plausible exponents. *)

val expected_distinct : n:int -> s:float -> draws:int -> float
(** Expected number of distinct items seen after [draws] Zipf(n, s)
    visits (exact, O(n)). *)

val simulate_distinct : Prng.Rng.t -> n:int -> s:float -> draws:int -> int
(** One Monte-Carlo trial of the same quantity: the oracle that tests
    check {!expected_distinct} against. *)

type extrapolation = {
  network_distinct : Ci.t;
  accepted_exponents : float list;
  trials : int;
}

val extrapolate_unique :
  Prng.Rng.t -> universe:int -> observed_distinct:int -> observed_draws:int ->
  fraction:float -> ?trials:int -> ?tolerance:float -> unit -> extrapolation
(** Keep candidate exponents whose predicted local distinct count
    matches the observation; report the spread of their network-wide
    predictions. Falls back to the conservative [x, x/p] range when no
    exponent is consistent. *)
