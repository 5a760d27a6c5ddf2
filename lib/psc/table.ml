(* A DC's oblivious counter table: a fixed-size vector of ElGamal
   ciphertexts under the CPs' joint key. Every slot starts as a fresh
   encryption of the identity (bit 0); inserting an item overwrites its
   slot with a fresh encryption of the non-identity marker (bit 1).
   Because every write is a fresh encryption, the table is oblivious:
   its contents never reveal which slots were touched, or how often. *)

type t = {
  slots : Crypto.Elgamal.ciphertext array;
  key : Crypto.Hmac.keyed; (* round hash key, shared by all DCs *)
  joint : Crypto.Elgamal.pub;
  tab : Crypto.Group.precomp; (* fixed-base table for [joint] *)
  drbg : Crypto.Drbg.t;
  mutable rs : Crypto.Group.exp array; (* insert randomness not yet used *)
  mutable next : int; (* index of the next unused exponent in [rs] *)
}

(* Insert randomness is read in bulk: one [random_exps] of this many
   exponents costs 22 SHA-256 compressions, against 8 for each
   single draw it replaces. *)
let insert_batch = 64

let create ?tab ~table_size ~key ~joint ~drbg () =
  let tab = match tab with Some t -> t | None -> Crypto.Group.precomp joint in
  (* Sequential prepass draws the per-slot randomness in slot order as
     one bulk DRBG read; the encryptions themselves are pure and run on
     the domain pool. *)
  let rs = Crypto.Group.random_exps drbg table_size in
  let slots =
    Parallel.parallel_init table_size (fun i ->
        Crypto.Elgamal.encrypt_with ~tab ~r:rs.(i) joint Crypto.Elgamal.one)
  in
  { slots; key; joint; tab; drbg; rs = [||]; next = 0 }

(* Each exponent is used once, so every insert is still a fresh,
   independent encryption. *)
let insert t item =
  let i = Item.slot ~key:t.key ~table_size:(Array.length t.slots) item in
  if t.next = Array.length t.rs then begin
    t.rs <- Crypto.Group.random_exps t.drbg insert_batch;
    t.next <- 0
  end;
  let r = t.rs.(t.next) in
  t.next <- t.next + 1;
  t.slots.(i) <- Crypto.Elgamal.encrypt_with ~tab:t.tab ~r t.joint Crypto.Elgamal.marker

let slots t = Array.copy t.slots

let load_slots t slots =
  if Array.length slots <> Array.length t.slots then
    invalid_arg "Table.load_slots: size mismatch";
  Array.blit slots 0 t.slots 0 (Array.length slots)

(* Slot-wise homomorphic combination of the DCs' tables: identity *
   identity = identity, anything else is non-identity (the marker has
   prime order q, and at most a few hundred DCs multiply in, so the
   product can never cycle back to the identity). This computes the
   encrypted union. *)
let combine_vectors vectors =
  match vectors with
  | [] -> invalid_arg "Table.combine: no tables"
  | first :: rest ->
    let n = Array.length first in
    List.iter
      (fun v -> if Array.length v <> n then invalid_arg "Table.combine: size mismatch")
      rest;
    Parallel.parallel_init n (fun i ->
        List.fold_left (fun acc v -> Crypto.Elgamal.mul acc v.(i)) first.(i) rest)

let combine tables = combine_vectors (List.map (fun t -> t.slots) tables)
