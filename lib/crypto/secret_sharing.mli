(** Secret sharing used by PrivCount.

    PrivCount blinds each data collector's counter with one additive
    share per share keeper, modulo a large modulus; the tally server can
    only recover the aggregate once every share keeper submits the sum of
    its blinding values. Shamir sharing is also provided (used by the
    robustness extension tests). *)

val modulus : int
(** Additive-sharing modulus (2^61), comfortably above any counter. *)

val blind : int -> int list -> int
(** [blind v shares] = (v + sum shares) mod modulus. *)

val to_signed : int -> int
(** Map a residue to the signed representative in
    (-modulus/2, modulus/2]: recovers negative noisy counts. *)

(** Shamir secret sharing over Z_q (q from {!Group}). *)
module Shamir : sig
  type share = { index : int; value : Group.exp }

  val split : Drbg.t -> threshold:int -> n:int -> Group.exp -> share list
  (** [split ~threshold ~n s]: any [threshold] of the [n] shares
      reconstruct [s]; fewer reveal nothing. *)

  val reconstruct : share list -> Group.exp
  (** Lagrange interpolation at zero. *)
end
