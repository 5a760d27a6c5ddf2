module Codec = Bus.Codec

type msg =
  | Cp_key of { pub : Crypto.Elgamal.pub; proof : Crypto.Sigma.schnorr_proof }
  | Joint of { joint : Crypto.Elgamal.pub }
  | Table_request
  | Table_submit of Crypto.Elgamal.ciphertext array
  | Noise_request of { flips : int }
  | Noise_slots of (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array
  | Shuffle_request of Crypto.Elgamal.ciphertext array
  | Shuffled of {
      output : Crypto.Elgamal.ciphertext array;
      proof : Crypto.Shuffle.proof option;
    }
  | Rerand_request of Crypto.Elgamal.ciphertext array
  | Rerandomized of Crypto.Elgamal.ciphertext array
  | Decrypt_request of Crypto.Elgamal.ciphertext array
  | Decrypt_share of {
      shares : Crypto.Group.elt array;
      proof : Crypto.Sigma.dleq_proof option;
    }

let kind = function
  | Cp_key _ -> "psc.cp_key"
  | Joint _ -> "psc.joint"
  | Table_request -> "psc.table_req"
  | Table_submit _ -> "psc.table"
  | Noise_request _ -> "psc.noise_req"
  | Noise_slots _ -> "psc.noise"
  | Shuffle_request _ -> "psc.shuffle_req"
  | Shuffled _ -> "psc.shuffled"
  | Rerand_request _ -> "psc.rerand_req"
  | Rerandomized _ -> "psc.rerand"
  | Decrypt_request _ -> "psc.decrypt_req"
  | Decrypt_share _ -> "psc.decrypt"

(* group values on the wire: plain varints of their canonical ints.
   A vector's raw ints are read first, then its group elements are
   checked for membership in one batched call (Group.elts_of_ints);
   a lone element uses the one-lane check. *)

let max_vec = 1 lsl 22

let non_member () = Codec.R.fail "non-member group element"

let read_elt r =
  match Crypto.Group.elt_of_int (Codec.R.varint r) with
  | e -> e
  | exception Invalid_argument _ -> non_member ()

let check_elts raw =
  match Crypto.Group.elts_of_ints raw with
  | e -> e
  | exception Invalid_argument _ -> non_member ()

let write_elt w e = Codec.W.varint w (Crypto.Group.elt_to_int e)

(* [width]: the fewest varints one element takes *)
let read_count ?width r ~max what =
  let n = Codec.R.count ?width r in
  if n > max then Codec.R.fail (what ^ " too long");
  n

let read_raw r n =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Codec.R.varint r
  done;
  a

(* the first two of every [stride] raw ints, checked as one batch *)
let check_pairs raw ~stride n =
  check_elts (Array.init (2 * n) (fun k -> raw.((stride * (k / 2)) + (k land 1))))

let write_cts w cts =
  Codec.W.varint w (Array.length cts);
  Array.iter
    (fun ct ->
      write_elt w ct.Crypto.Elgamal.c1;
      write_elt w ct.Crypto.Elgamal.c2)
    cts

let read_cts r =
  let n = read_count ~width:2 r ~max:max_vec "ciphertext vector" in
  let e = check_elts (read_raw r (2 * n)) in
  Array.init n (fun i -> { Crypto.Elgamal.c1 = e.(2 * i); c2 = e.((2 * i) + 1) })

let write_ints w a =
  Codec.W.varint w (Array.length a);
  Array.iter (Codec.W.varint w) a

let read_ints ~max r = read_raw r (read_count r ~max "int vector")

let encode m =
  let w = Codec.W.create () in
  (match m with
  | Cp_key { pub; proof } ->
      write_elt w pub;
      write_elt w proof.Crypto.Sigma.commitment;
      Codec.W.varint w (Crypto.Group.exp_to_int proof.Crypto.Sigma.response)
  | Joint { joint } -> write_elt w joint
  | Table_request -> ()
  | Table_submit cts | Shuffle_request cts | Rerand_request cts | Rerandomized cts
  | Decrypt_request cts ->
      write_cts w cts
  | Noise_request { flips } -> Codec.W.varint w flips
  | Noise_slots slots ->
      Codec.W.varint w (Array.length slots);
      Array.iter
        (fun (ct, proof) ->
          write_elt w ct.Crypto.Elgamal.c1;
          write_elt w ct.Crypto.Elgamal.c2;
          Array.iter (Codec.W.varint w) (Crypto.Bit_proof.to_ints proof))
        slots
  | Shuffled { output; proof } ->
      write_cts w output;
      (match proof with
      | None -> Codec.W.u8 w 0
      | Some p ->
          Codec.W.u8 w 1;
          write_ints w (Crypto.Shuffle.proof_to_ints p))
  | Decrypt_share { shares; proof } ->
      Codec.W.varint w (Array.length shares);
      Array.iter (write_elt w) shares;
      (match proof with
      | None -> Codec.W.u8 w 0
      | Some p ->
          Codec.W.u8 w 1;
          write_elt w p.Crypto.Sigma.a1;
          write_elt w p.Crypto.Sigma.a2;
          Codec.W.varint w (Crypto.Group.exp_to_int p.Crypto.Sigma.z)));
  Codec.W.contents w

(* per slot: c1, c2, then the eight bit-proof ints; the slots' c1/c2
   are one batch, each proof's four elements one four-lane check *)
let read_bit_slots r =
  let n = read_count ~width:10 r ~max:max_vec "noise vector" in
  let raw = read_raw r (10 * n) in
  let cs = check_pairs raw ~stride:10 n in
  Array.init n (fun i ->
      match Crypto.Bit_proof.of_ints (Array.sub raw ((10 * i) + 2) 8) with
      | Some proof -> ({ Crypto.Elgamal.c1 = cs.(2 * i); c2 = cs.((2 * i) + 1) }, proof)
      | None -> Codec.R.fail "malformed bit proof")

let decode ~kind body =
  match kind with
  | "psc.cp_key" ->
      Codec.decode body (fun r ->
          let pub = read_elt r in
          let commitment = read_elt r in
          let response = Crypto.Group.exp_of_int (Codec.R.varint r) in
          Cp_key { pub; proof = { Crypto.Sigma.commitment; response } })
  | "psc.joint" -> Codec.decode body (fun r -> Joint { joint = read_elt r })
  | "psc.table_req" -> Codec.decode body (fun _ -> Table_request)
  | "psc.table" -> Codec.decode body (fun r -> Table_submit (read_cts r))
  | "psc.noise_req" ->
      Codec.decode body (fun r -> Noise_request { flips = Codec.R.varint r })
  | "psc.noise" -> Codec.decode body (fun r -> Noise_slots (read_bit_slots r))
  | "psc.shuffle_req" -> Codec.decode body (fun r -> Shuffle_request (read_cts r))
  | "psc.shuffled" ->
      Codec.decode body (fun r ->
          let output = read_cts r in
          let proof =
            match Codec.R.u8 r with
            | 0 -> None
            | 1 -> (
                let ints = read_ints ~max:(1 lsl 26) r in
                match Crypto.Shuffle.proof_of_ints ints with
                | Some p -> Some p
                | None -> Codec.R.fail "malformed shuffle proof")
            | _ -> Codec.R.fail "bad proof tag"
          in
          Shuffled { output; proof })
  | "psc.rerand_req" -> Codec.decode body (fun r -> Rerand_request (read_cts r))
  | "psc.rerand" -> Codec.decode body (fun r -> Rerandomized (read_cts r))
  | "psc.decrypt_req" -> Codec.decode body (fun r -> Decrypt_request (read_cts r))
  | "psc.decrypt" ->
      Codec.decode body (fun r ->
          let shares = check_elts (read_raw r (read_count r ~max:max_vec "share vector")) in
          let proof =
            match Codec.R.u8 r with
            | 0 -> None
            | 1 ->
                let a1 = read_elt r in
                let a2 = read_elt r in
                let z = Crypto.Group.exp_of_int (Codec.R.varint r) in
                Some { Crypto.Sigma.a1; a2; z }
            | _ -> Codec.R.fail "bad proof tag"
          in
          Decrypt_share { shares; proof })
  | k -> Error (Codec.Invalid (Printf.sprintf "unknown psc kind %S" k))

let post sched ~epoch ~src ~dst m =
  Bus.Sched.post sched ~epoch ~src ~dst ~kind:(kind m) ~body:(encode m)

let encode_result (res : Protocol.result) =
  let w = Codec.W.create () in
  Codec.W.varint w res.Protocol.raw_nonzero;
  Codec.W.varint w res.Protocol.total_flips;
  Codec.W.f64 w res.Protocol.estimate;
  Codec.W.f64 w res.Protocol.ci.Stats.Ci.lo;
  Codec.W.f64 w res.Protocol.ci.Stats.Ci.hi;
  Codec.W.u8 w (if res.Protocol.proofs_ok then 1 else 0);
  Codec.W.varint w (List.length res.Protocol.culprits);
  List.iter (Codec.W.varint w) res.Protocol.culprits;
  Codec.W.contents w

let decode_result s =
  Codec.decode s (fun r ->
      let raw_nonzero = Codec.R.varint r in
      let total_flips = Codec.R.varint r in
      let estimate = Codec.R.f64 r in
      let lo = Codec.R.f64 r in
      let hi = Codec.R.f64 r in
      if lo > hi then Codec.R.fail "interval lo > hi";
      let proofs_ok =
        match Codec.R.u8 r with
        | 0 -> false
        | 1 -> true
        | _ -> Codec.R.fail "bad proofs_ok"
      in
      let n = Codec.R.count r in
      if n > 4096 then Codec.R.fail "too many culprits";
      let culprits = ref [] in
      for _ = 1 to n do
        culprits := Codec.R.varint r :: !culprits
      done;
      {
        Protocol.raw_nonzero;
        total_flips;
        estimate;
        ci = Stats.Ci.make lo hi;
        proofs_ok;
        culprits = List.rev !culprits;
      })
