(** Onion-service descriptors with real structure: a service identity
    key signs the descriptor (HSDirs verify before storing), the v2
    address is derived from the public key, and v3 addresses use key
    blinding — which is exactly why the paper measures v2 only: a v3
    blinded address changes every time period and cannot be linked
    across periods by PSC's unique counting (§6.1). *)

type identity = {
  keypair : Crypto.Schnorr_sig.keypair;
  v2_address : string;
}

val make_identity : Crypto.Drbg.t -> identity
(** Fresh service identity; the v2 address is a hash of the public key. *)

type t = {
  version : [ `V2 | `V3 ];
  address : string;           (** v2: stable; v3: per-period blinded *)
  intro_points : Relay.id list;
  period : int;               (** time period of validity *)
  public : Crypto.Group.elt;  (** key the signature verifies under *)
  signature : Crypto.Schnorr_sig.signature;
}

val create_v2 :
  Crypto.Drbg.t -> identity -> intro_points:Relay.id list -> period:int -> t

val create_v3 :
  Crypto.Drbg.t -> identity -> intro_points:Relay.id list -> period:int -> t
(** Signs under the period-blinded key; [address] is derived from the
    blinded key and is unlinkable to the identity across periods. *)

val verify : t -> bool
(** What an HSDir checks before storing: the signature is valid under
    the descriptor's key and the address matches that key. *)
