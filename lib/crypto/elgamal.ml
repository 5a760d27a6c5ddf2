type pub = Group.elt
type priv = Group.exp
type ciphertext = { c1 : Group.elt; c2 : Group.elt }

let keygen drbg =
  let x = Group.random_exp drbg in
  (x, Group.pow_g x)

let joint_pub pubs = List.fold_left Group.mul Group.one pubs

let encrypt_with ?tab ~r pk m =
  { c1 = Group.pow_g r; c2 = Group.mul m (Group.pow_tab ?tab pk r) }

let encrypt ?tab drbg pk m = encrypt_with ?tab ~r:(Group.random_exp drbg) pk m

let mul a b = { c1 = Group.mul a.c1 b.c1; c2 = Group.mul a.c2 b.c2 }

let combine_partial_arr ct shares =
  Group.div ct.c2 (Array.fold_left Group.mul Group.one shares)

(* Vector form: [share p i] is party p's share for ciphertext i.
   Folding the denominators first and batch-inverting turns n
   inversions (one exponentiation each) into one; the denominator
   products run on the domain pool. *)
let combine_partial_all cts ~parties ~share =
  let denoms =
    Parallel.parallel_init (Array.length cts) (fun i ->
        let acc = ref Group.one in
        for p = 0 to parties - 1 do
          acc := Group.mul !acc (share p i)
        done;
        !acc)
  in
  let inv_denoms = Group.batch_inv denoms in
  Array.mapi (fun i ct -> Group.mul ct.c2 inv_denoms.(i)) cts

let is_identity_plaintext m = Group.elt_to_int m = Group.elt_to_int Group.one

let one = Group.one
let marker = Group.hash_to_elt "psc-bit-one-marker"
