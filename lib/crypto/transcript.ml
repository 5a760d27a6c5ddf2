type t = Sha256.ctx

let string s t =
  Sha256.update t s;
  t

let create tag = string tag (Sha256.init ())

let int v t =
  Sha256.update_int32_be t v;
  t

(* full arity: [let elt x = int ...] would build a closure per field *)
let elt x t = int (Group.elt_to_int x) t
let exp e t = int (Group.exp_to_int e) t

let elts a t =
  Array.iter (fun e -> Sha256.update_int32_be t (Group.elt_to_int e)) a;
  t

let exps a t =
  Array.iter (fun e -> Sha256.update_int32_be t (Group.exp_to_int e)) a;
  t

let ciphertexts a t =
  Array.iter (fun { Elgamal.c1; c2 } -> ignore (elt c2 (elt c1 t))) a;
  t

let digest = Sha256.finalize
let challenge t = Group.exp_of_digest (digest t)
