(* Registry of simulated onion services. Addresses are derived from a
   counter through SHA-256, truncated to the 16-character base32-ish v2
   form; [public] marks services listed in the public (ahmia-like)
   index, used for the Table 7 "public vs unknown" split. *)

type service = {
  address : string;
  public : bool;
  mutable published : bool;
}

type t = {
  mutable services : service array;
  by_address : (string, service) Hashtbl.t;
}

let address_of_index i =
  let digest = Crypto.Sha256.hex (Printf.sprintf "onion-service-%d" i) in
  String.sub digest 0 16 ^ ".onion"

let create () = { services = [||]; by_address = Hashtbl.create 1024 }

let add t ~public =
  let address = address_of_index (Hashtbl.length t.by_address) in
  let s = { address; public; published = false } in
  t.services <- Array.append t.services [| s |];
  Hashtbl.replace t.by_address address s;
  s

let populate t ~count ~public_fraction rng =
  List.init count (fun _ -> add t ~public:(Prng.Rng.bernoulli rng public_fraction))

let find t address = Hashtbl.find_opt t.by_address address

let services t = t.services

(* A syntactically-valid address that no service owns: what a scanner
   with an outdated list, or a botnet with a dead C&C address, asks
   for (paper §6.2). *)
let bogus_address i =
  let digest = Crypto.Sha256.hex (Printf.sprintf "bogus-onion-%d" i) in
  String.sub digest 0 16 ^ ".onion"
