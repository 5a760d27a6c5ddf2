type keypair = { priv : Group.exp; pub : Group.elt }
type signature = { challenge : Group.exp; response : Group.exp }

let keygen drbg =
  let priv = Group.random_exp drbg in
  { priv; pub = Group.pow_g priv }

let challenge_of ~pub ~commitment msg =
  Transcript.(create "schnorr-sig|" |> elt pub |> elt commitment |> string msg |> challenge)

let sign drbg ~priv msg =
  let pub = Group.pow_g priv in
  let k = Group.random_exp drbg in
  let commitment = Group.pow_g k in
  let challenge = challenge_of ~pub ~commitment msg in
  (* s = k - c*x; verification recomputes R = g^s * y^c *)
  let response = Group.exp_sub k (Group.exp_mul challenge priv) in
  { challenge; response }

let verify ~pub msg { challenge; response } =
  let commitment = Group.mul (Group.pow_g response) (Group.pow pub challenge) in
  Group.exp_to_int (challenge_of ~pub ~commitment msg) = Group.exp_to_int challenge
