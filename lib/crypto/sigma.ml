type schnorr_proof = { commitment : Group.elt; response : Group.exp }

let schnorr_challenge ~public ~commitment ~context =
  Transcript.(
    create "schnorr|" |> string context |> string "|" |> elt public |> elt commitment
    |> challenge)

let schnorr_prove drbg ~secret ~context =
  let public = Group.pow_g secret in
  let k = Group.random_exp drbg in
  let commitment = Group.pow_g k in
  let c = schnorr_challenge ~public ~commitment ~context in
  let response = Group.exp_add k (Group.exp_mul c secret) in
  { commitment; response }

let schnorr_verify ~public ~context { commitment; response } =
  let c = schnorr_challenge ~public ~commitment ~context in
  Group.elt_to_int (Group.pow_g response)
  = Group.elt_to_int (Group.mul commitment (Group.pow public c))

type dleq_proof = { a1 : Group.elt; a2 : Group.elt; z : Group.exp }

let dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context =
  Transcript.(
    create "dleq|" |> string context |> string "|" |> elt public1 |> elt base2
    |> elt public2 |> elt a1 |> elt a2 |> challenge)

let dleq_prove_with ?public2 ~public1 ~k ~secret ~base2 ~context () =
  (* a caller that already computed base2^secret (a folded decryption
     share) passes it in and skips the recomputation *)
  let public2 = match public2 with Some v -> v | None -> Group.pow base2 secret in
  let a1 = Group.pow_g k and a2 = Group.pow base2 k in
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  let z = Group.exp_add k (Group.exp_mul c secret) in
  { a1; a2; z }

let dleq_verify ~public1 ~base2 ~public2 ~context { a1; a2; z } =
  let c = dleq_challenge ~public1 ~base2 ~public2 ~a1 ~a2 ~context in
  Group.elt_to_int (Group.pow_g z)
  = Group.elt_to_int (Group.mul a1 (Group.pow public1 c))
  && Group.elt_to_int (Group.pow base2 z)
     = Group.elt_to_int (Group.mul a2 (Group.pow public2 c))
