type identity = {
  keypair : Crypto.Schnorr_sig.keypair;
  v2_address : string;
}

(* The first 16 hex digits of H(tag, pub), as an onion address. *)
let address ~tag pub =
  let digest = Crypto.Transcript.(create tag |> elt pub |> digest) in
  String.sub (Crypto.Sha256.to_hex digest) 0 16 ^ ".onion"

let address_of_key = address ~tag:"onion-v2-address|"
let v3_address = address ~tag:"onion-v3-address|"

let make_identity drbg =
  let keypair = Crypto.Schnorr_sig.keygen drbg in
  { keypair; v2_address = address_of_key keypair.Crypto.Schnorr_sig.pub }

type t = {
  version : [ `V2 | `V3 ];
  address : string;
  intro_points : Relay.id list;
  period : int;
  public : Crypto.Group.elt;
  signature : Crypto.Schnorr_sig.signature;
}

let payload_of ~address ~intro_points ~period =
  Printf.sprintf "desc|%s|%s|%d" address
    (String.concat "," (List.map string_of_int intro_points))
    period

(* The signed byte string (address, intro points, period). *)
let payload t = payload_of ~address:t.address ~intro_points:t.intro_points ~period:t.period

let create_v2 drbg identity ~intro_points ~period =
  let address = identity.v2_address in
  let signature =
    Crypto.Schnorr_sig.sign drbg ~priv:identity.keypair.Crypto.Schnorr_sig.priv
      (payload_of ~address ~intro_points ~period)
  in
  { version = `V2; address; intro_points; period;
    public = identity.keypair.Crypto.Schnorr_sig.pub; signature }

(* v3 key blinding: the period-specific key is
     priv' = priv + H(pub, period),  pub' = pub * g^H(pub, period)
   so anyone knowing the *identity* public key can derive pub' for a
   period, but two blinded addresses from different periods are
   unlinkable without it. *)
let blinding_factor pub ~period =
  Crypto.Transcript.(
    create "v3-blind|" |> elt pub |> string ("|" ^ string_of_int period) |> challenge)

let blinded_keypair identity ~period =
  let pub = identity.keypair.Crypto.Schnorr_sig.pub in
  let h = blinding_factor pub ~period in
  let priv' = Crypto.Group.exp_add identity.keypair.Crypto.Schnorr_sig.priv h in
  let pub' = Crypto.Group.mul pub (Crypto.Group.pow_g h) in
  (priv', pub')

let create_v3 drbg identity ~intro_points ~period =
  let priv', pub' = blinded_keypair identity ~period in
  let address = v3_address pub' in
  let signature =
    Crypto.Schnorr_sig.sign drbg ~priv:priv' (payload_of ~address ~intro_points ~period)
  in
  { version = `V3; address; intro_points; period; public = pub'; signature }

let verify t =
  let address_ok =
    match t.version with
    | `V2 -> t.address = address_of_key t.public
    | `V3 -> t.address = v3_address t.public
  in
  address_ok && Crypto.Schnorr_sig.verify ~pub:t.public (payload t) t.signature
