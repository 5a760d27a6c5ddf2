open Crypto

let drbg () = Drbg.create "test-seed"

(* The group's generator. *)
let g = Group.pow_g Group.one_exp

let decrypt = Testkit.decrypt

(* A fresh proven bit encryption, its four exponents drawn one at a time. *)
let encrypt_bit_proven d ~pk bit =
  let r = Group.random_exp d in
  let fake_e = Group.random_exp d in
  let fake_z = Group.random_exp d in
  let k = Group.random_exp d in
  Bit_proof.encrypt_bit_proven_with ~pk { Bit_proof.r; fake_e; fake_z; k } bit

(* --- SHA-256 NIST / known-answer vectors --- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
         ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter (fun (msg, want) -> Alcotest.(check string) msg want (Sha256.hex msg)) cases

let test_sha256_million_a () =
  (* NIST long vector: 10^6 repetitions of 'a'. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_incremental () =
  (* Split points that cross block boundaries must not change the digest. *)
  let msg = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let whole = Sha256.digest msg in
  List.iter
    (fun cut ->
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub msg 0 cut);
      Sha256.update ctx (String.sub msg cut (String.length msg - cut));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" cut)
        (Sha256.to_hex whole)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 128; 299 ]

let test_sha256_reuse_rejected () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "update after finalize"
    (Invalid_argument "Sha256.update: context already finalized") (fun () ->
      Sha256.update ctx "x")

(* Known answers across the padding edges (55/56 bytes: length field
   fits / spills into a second block; 63/64/65: block boundary; 119/120
   and 128: the same edges one block later), computed independently
   with Python's hashlib over the message byte i = (31 i + 7) mod 256. *)
let test_sha256_padding_edges () =
  let msg n = String.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  List.iter
    (fun (n, want) ->
      Alcotest.(check string) (Printf.sprintf "length %d" n) want (Sha256.hex (msg n)))
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879");
      (55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b");
      (56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63");
      (63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076");
      (64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd");
      (65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0");
      (119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe");
      (120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656");
      (128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356");
      (1000, "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179");
    ]

(* The word-level path (whole blocks through [compress_words], the last
   one padded by [pad_words]) gives [digest]'s hash for every length
   that fits one padded block, after zero or one whole block. Bytes past
   the message in the last block start as 0xff, so the padding must
   clear them. *)
let test_sha256_pad_words () =
  let msg n = String.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff)) in
  List.iter
    (fun pre ->
      for len = 0 to 55 do
        let s = msg (pre + len) in
        let byte j = if j < pre + len then Char.code s.[j] else 0xff in
        let words base = Array.init 16 (fun w ->
          List.fold_left (fun acc b -> (acc lsl 8) lor byte (base + (4 * w) + b)) 0 [ 0; 1; 2; 3 ])
        in
        let h = Array.make 8 0 in
        Sha256.set_iv h;
        if pre = 64 then Sha256.compress_words h (words 0);
        let m = words pre in
        Sha256.pad_words m ~len ~total:(pre + len);
        Sha256.compress_words h m;
        let want = Array.make 8 0 in
        Sha256.load_words (Sha256.digest s) want 0;
        Alcotest.(check (array int)) (Printf.sprintf "%d + %d bytes" pre len) want h
      done)
    [ 0; 64 ]

(* --- HMAC (RFC 4231 vectors) --- *)

(* The 32 bytes of the big-endian words [w]. *)
let string_of_words w =
  String.init (4 * Array.length w) (fun i ->
      Char.chr ((w.(i / 4) lsr (24 - (8 * (i mod 4)))) land 0xff))

(* The 32-byte MAC of [msg] under the prepared key [k]. *)
let hmac k msg =
  let out = Array.make 8 0 in
  Hmac.mac k msg out;
  string_of_words out

let hmac_hex key msg = Sha256.to_hex (hmac (Hmac.keyed key) msg)

let test_hmac_vectors () =
  let key1 = String.make 20 '\x0b' in
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hmac_hex key1 "Hi There");
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hmac_hex "Jefe" "what do ya want for nothing?");
  let key3 = String.make 20 '\xaa' in
  let data3 = String.make 50 '\xdd' in
  Alcotest.(check string) "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hmac_hex key3 data3);
  (* case 6: oversized key is hashed first *)
  let key6 = String.make 131 '\xaa' in
  Alcotest.(check string) "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hmac_hex key6 "Test Using Larger Than Block-Size Key - Hash Key First")

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create "seed" and b = Drbg.create "seed" in
  Alcotest.(check string) "same stream" (Drbg.generate a 64) (Drbg.generate b 64)

let test_drbg_personalization () =
  let a = Drbg.create ~personalization:"x" "seed" and b = Drbg.create ~personalization:"y" "seed" in
  Alcotest.(check bool) "different streams" true (Drbg.generate a 32 <> Drbg.generate b 32)

let test_drbg_uniform_range () =
  let d = drbg () in
  for _ = 1 to 5_000 do
    let v = Drbg.uniform d 1000 in
    if v < 0 || v >= 1000 then Alcotest.fail "uniform out of range"
  done

(* HMAC_DRBG known answer (SP 800-90A, SHA-256): instantiate with a
   personalization string, generate 100 bytes, then 16 bulk draws
   below q. Expected values come from an independent Python
   implementation on the standard [hmac] module, not from this code. *)
let test_drbg_known_answer () =
  let d = Drbg.create ~personalization:"pin-personalization" "pin-seed" in
  Alcotest.(check string) "generate 100"
    "3b3639429f0705cf2935ecdfad63394481acaa89e958089c406c040031451c55\
     27f350c795e3b2408fddcfec3897d01b1e163ca4150cfcf0036aa3b0dac59a9a\
     bdcb88672b25b389656d28375230bfdfcd48dbf9475b3da2abeba366a43410c1\
     4f565481"
    (Sha256.to_hex (Drbg.generate d 100));
  Alcotest.(check (array int)) "uniform_array after generate"
    [|
      41377869; 974839308; 155105995; 603050449; 931517828; 667090101; 505051522; 240365529;
      897702515; 228134571; 894357726; 740591756; 712618779; 779765600; 260681937; 500611875;
    |]
    (Drbg.uniform_array d Group.q 16)

(* --- Group --- *)

let test_group_constants () =
  Alcotest.(check int) "p = 2q+1" Group.p ((2 * Group.q) + 1);
  Alcotest.(check bool) "g in subgroup" true (Group.is_member (Group.elt_to_int g));
  Alcotest.(check bool) "1 in subgroup" true (Group.is_member 1);
  Alcotest.(check bool) "0 not member" false (Group.is_member 0);
  Alcotest.(check bool) "p not member" false (Group.is_member Group.p)

let test_group_laws () =
  let d = drbg () in
  for _ = 1 to 50 do
    let a = Group.random_elt d and b = Group.random_elt d and c = Group.random_elt d in
    let open Group in
    Alcotest.(check int) "assoc" (elt_to_int (mul (mul a b) c)) (elt_to_int (mul a (mul b c)));
    Alcotest.(check int) "comm" (elt_to_int (mul a b)) (elt_to_int (mul b a));
    Alcotest.(check int) "identity" (elt_to_int a) (elt_to_int (mul a one));
    Alcotest.(check int) "inverse" (elt_to_int one) (elt_to_int (mul a (inv a)))
  done

let test_group_pow () =
  let d = drbg () in
  for _ = 1 to 20 do
    let a = Group.random_elt d in
    let x = Group.random_exp d and y = Group.random_exp d in
    let open Group in
    (* a^(x+y) = a^x * a^y *)
    Alcotest.(check int) "pow additivity"
      (elt_to_int (pow a (exp_add x y)))
      (elt_to_int (mul (pow a x) (pow a y)));
    (* (a^x)^y = a^(xy) *)
    Alcotest.(check int) "pow multiplicativity"
      (elt_to_int (pow (pow a x) y))
      (elt_to_int (pow a (exp_mul x y)))
  done

let test_group_element_order () =
  let d = drbg () in
  for _ = 1 to 20 do
    let a = Group.random_elt d in
    Alcotest.(check int) "a^q = 1" 1 (Group.elt_to_int (Group.pow a (Group.exp_of_int 0)) * 0 + Group.elt_to_int (Group.pow_g (Group.exp_of_int 0)));
    Alcotest.(check bool) "member" true (Group.is_member (Group.elt_to_int a))
  done

let test_exp_field () =
  let d = drbg () in
  for _ = 1 to 50 do
    let x = Group.random_exp d in
    Alcotest.(check int) "x + (-x) = 0" 0 (Group.exp_to_int (Group.exp_add x (Group.exp_neg x)))
  done

let test_exp_of_int_negative () =
  Alcotest.(check int) "-1 mod q" (Group.q - 1) (Group.exp_to_int (Group.exp_of_int (-1)))

let test_elt_of_int_rejects () =
  Alcotest.check_raises "non-member rejected"
    (Invalid_argument "Group.elt_of_int: not a subgroup element") (fun () ->
      (* 2 is a generator of the full group, not a QR mod a safe prime with p mod 8 = 3 *)
      ignore (Group.elt_of_int 0))

let test_hash_to_exp_stable () =
  let hash_to_exp s = Group.exp_of_digest (Sha256.digest s) in
  Alcotest.(check int) "stable"
    (Group.exp_to_int (hash_to_exp "abc"))
    (Group.exp_to_int (hash_to_exp "abc"));
  Alcotest.(check bool) "sensitive" true (hash_to_exp "abc" <> hash_to_exp "abd")

let test_hash_to_elt_member () =
  for i = 0 to 20 do
    let e = Group.hash_to_elt (string_of_int i) in
    Alcotest.(check bool) "member" true (Group.is_member (Group.elt_to_int e))
  done

(* --- ElGamal --- *)

let test_elgamal_roundtrip () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  for _ = 1 to 20 do
    let m = Group.random_elt d in
    let ct = Elgamal.encrypt d pk m in
    Alcotest.(check int) "roundtrip" (Group.elt_to_int m) (Group.elt_to_int (decrypt sk ct))
  done

let test_elgamal_rerandomize () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let m = Group.random_elt d in
  let ct = Elgamal.encrypt d pk m in
  (* times a fresh encryption of the identity, as a shuffle does *)
  let ct' = Elgamal.mul ct (Elgamal.encrypt d pk Elgamal.one) in
  Alcotest.(check bool) "ciphertext changed" true (ct <> ct');
  Alcotest.(check int) "plaintext kept" (Group.elt_to_int m)
    (Group.elt_to_int (decrypt sk ct'))

let test_elgamal_homomorphic () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let m1 = Group.random_elt d and m2 = Group.random_elt d in
  let ct = Elgamal.mul (Elgamal.encrypt d pk m1) (Elgamal.encrypt d pk m2) in
  Alcotest.(check int) "product" (Group.elt_to_int (Group.mul m1 m2))
    (Group.elt_to_int (decrypt sk ct))

let test_elgamal_pow_identity_invariant () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let ct_zero = Elgamal.encrypt d pk Elgamal.one in
  let ct_one = Elgamal.encrypt d pk Elgamal.marker in
  let k = Group.random_exp d in
  let k = if Group.exp_to_int k = 0 then Group.one_exp else k in
  (* both components to the same power k, on the lanes PSC's bit
     rerandomization uses *)
  let l =
    Group.pow_lanes ct_zero.Elgamal.c1 k ct_zero.Elgamal.c2 k ct_one.Elgamal.c1 k
      ct_one.Elgamal.c2 k
  in
  Alcotest.(check bool) "0 stays identity" true
    (Elgamal.is_identity_plaintext (decrypt sk { Elgamal.c1 = l.Group.l0; c2 = l.Group.l1 }));
  Alcotest.(check bool) "1 stays non-identity" false
    (Elgamal.is_identity_plaintext (decrypt sk { Elgamal.c1 = l.Group.l2; c2 = l.Group.l3 }))

(* one party's decryption share c1^x *)
let partial_decrypt x ct = Group.pow ct.Elgamal.c1 x

let test_elgamal_joint_decryption () =
  let d = drbg () in
  let keys = List.init 3 (fun _ -> Elgamal.keygen d) in
  let joint = Elgamal.joint_pub (List.map snd keys) in
  let m = Group.random_elt d in
  let ct = Elgamal.encrypt d joint m in
  let shares = Array.of_list (List.map (fun (sk, _) -> partial_decrypt sk ct) keys) in
  Alcotest.(check int) "joint decrypt" (Group.elt_to_int m)
    (Group.elt_to_int (Elgamal.combine_partial_arr ct shares))

let test_elgamal_joint_missing_share_fails () =
  let d = drbg () in
  let keys = List.init 3 (fun _ -> Elgamal.keygen d) in
  let joint = Elgamal.joint_pub (List.map snd keys) in
  let m = Group.random_elt d in
  let ct = Elgamal.encrypt d joint m in
  let shares =
    match List.map (fun (sk, _) -> partial_decrypt sk ct) keys with
    | _ :: rest -> Array.of_list rest
    | [] -> assert false
  in
  Alcotest.(check bool) "missing share breaks decryption" false
    (Group.elt_to_int m = Group.elt_to_int (Elgamal.combine_partial_arr ct shares))

(* --- sigma protocols --- *)

let test_schnorr () =
  let d = drbg () in
  let secret = Group.random_exp d in
  let proof = Sigma.schnorr_prove d ~secret ~context:"ctx" in
  Alcotest.(check bool) "accepts" true
    (Sigma.schnorr_verify ~public:(Group.pow_g secret) ~context:"ctx" proof);
  Alcotest.(check bool) "wrong context rejected" false
    (Sigma.schnorr_verify ~public:(Group.pow_g secret) ~context:"other" proof);
  Alcotest.(check bool) "wrong public rejected" false
    (Sigma.schnorr_verify ~public:(Group.pow_g (Group.exp_add secret Group.one_exp))
       ~context:"ctx" proof)

let test_dleq () =
  let d = drbg () in
  let secret = Group.random_exp d in
  let base2 = Group.random_elt d in
  let public1 = Group.pow_g secret and public2 = Group.pow base2 secret in
  let proof =
    Sigma.dleq_prove_with ~public1 ~k:(Group.random_exp d) ~secret ~base2 ~context:"c" ()
  in
  Alcotest.(check bool) "accepts" true (Sigma.dleq_verify ~public1 ~base2 ~public2 ~context:"c" proof);
  Alcotest.(check bool) "mismatched statement rejected" false
    (Sigma.dleq_verify ~public1 ~base2 ~public2:(Group.mul public2 g) ~context:"c" proof)

(* --- Schnorr signatures --- *)

let test_schnorr_sig_roundtrip () =
  let d = drbg () in
  let kp = Schnorr_sig.keygen d in
  let s = Schnorr_sig.sign d ~priv:kp.Schnorr_sig.priv "hello onion" in
  Alcotest.(check bool) "verifies" true (Schnorr_sig.verify ~pub:kp.Schnorr_sig.pub "hello onion" s);
  Alcotest.(check bool) "wrong message" false
    (Schnorr_sig.verify ~pub:kp.Schnorr_sig.pub "hello 0nion" s);
  let other = Schnorr_sig.keygen d in
  Alcotest.(check bool) "wrong key" false
    (Schnorr_sig.verify ~pub:other.Schnorr_sig.pub "hello onion" s)

let test_schnorr_sig_distinct_messages () =
  let d = drbg () in
  let kp = Schnorr_sig.keygen d in
  let s1 = Schnorr_sig.sign d ~priv:kp.Schnorr_sig.priv "a" in
  let s2 = Schnorr_sig.sign d ~priv:kp.Schnorr_sig.priv "b" in
  Alcotest.(check bool) "signatures differ" true
    (Group.exp_to_int s1.Schnorr_sig.challenge <> Group.exp_to_int s2.Schnorr_sig.challenge
    || Group.exp_to_int s1.Schnorr_sig.response <> Group.exp_to_int s2.Schnorr_sig.response)

(* --- bit proofs (PSC noise validity) --- *)

let test_bit_proof_valid_bits () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  List.iter
    (fun bit ->
      let ct, proof = encrypt_bit_proven d ~pk bit in
      Alcotest.(check bool)
        (Printf.sprintf "bit %b accepted" bit)
        true (Bit_proof.verify ~pk ct proof))
    [ false; true ]

let test_bit_proof_rejects_non_bit () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  (* encryption of marker^2 (an invalid "2") with a proof claiming bit 1 *)
  let r = Group.random_exp d in
  let bad = Elgamal.encrypt_with ~r pk (Group.mul Elgamal.marker Elgamal.marker) in
  let forged = Bit_proof.prove d ~pk ~r ~bit:true bad in
  Alcotest.(check bool) "non-bit rejected" false (Bit_proof.verify ~pk bad forged)

let test_bit_proof_rejects_mismatched_ciphertext () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  let ct, proof = encrypt_bit_proven d ~pk true in
  let other, _ = encrypt_bit_proven d ~pk true in
  ignore ct;
  Alcotest.(check bool) "proof bound to ciphertext" false (Bit_proof.verify ~pk other proof)

let test_bit_proof_hides_bit () =
  (* structural check: both branches of the proof verify their
     equations, so the verifier learns nothing about which is real *)
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let ct, proof = encrypt_bit_proven d ~pk false in
  Alcotest.(check bool) "verifies" true (Bit_proof.verify ~pk ct proof);
  Alcotest.(check bool) "plaintext is identity" true
    (Elgamal.is_identity_plaintext (decrypt sk ct))

(* --- secret sharing --- *)

(* PrivCount draws one uniform blinding value per share keeper and
   removes them by subtracting each keeper's sum, as these helpers do *)
let additive_shares d ~n = List.init n (fun _ -> Drbg.uniform d Secret_sharing.modulus)

let unblind v shares =
  let m = Secret_sharing.modulus in
  List.fold_left (fun acc s -> (((acc - s) mod m) + m) mod m) v shares

let test_additive_roundtrip () =
  let d = drbg () in
  for v = 0 to 20 do
    let shares = additive_shares d ~n:5 in
    let blinded = Secret_sharing.blind (v * 1234) shares in
    Alcotest.(check int) "roundtrip" (v * 1234) (unblind blinded shares)
  done

let test_additive_negative_value () =
  let d = drbg () in
  let shares = additive_shares d ~n:3 in
  let blinded = Secret_sharing.blind (-42) shares in
  Alcotest.(check int) "negative via signed view" (-42)
    (Secret_sharing.to_signed (unblind blinded shares))

let test_additive_partial_is_garbage () =
  let d = drbg () in
  let shares = additive_shares d ~n:3 in
  let blinded = Secret_sharing.blind 7 shares in
  let partial = match shares with _ :: rest -> unblind blinded rest | [] -> assert false in
  Alcotest.(check bool) "partial unblind reveals nothing" true (partial <> 7)

(* --- shuffle --- *)

let make_cts d pk n =
  Array.init n (fun i ->
      Elgamal.encrypt d pk (if i mod 2 = 0 then Elgamal.one else Elgamal.marker))

let test_shuffle_verifies () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  let input = make_cts d pk 12 in
  let output, proof = Shuffle.shuffle d pk input in
  Alcotest.(check bool) "verifies" true (Shuffle.verify pk ~input ~output proof);
  Alcotest.(check int) "5n + 9 wire ints" ((5 * 12) + 9)
    (Array.length (Shuffle.proof_to_ints proof))

let test_shuffle_preserves_plaintexts () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let input = make_cts d pk 16 in
  let output, _ = Shuffle.shuffle d pk input in
  let plain cts =
    Array.to_list cts
    |> List.map (fun ct -> Group.elt_to_int (decrypt sk ct))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "multiset preserved" (plain input) (plain output)

let test_shuffle_tamper_detected () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  let input = make_cts d pk 10 in
  let output, proof = Shuffle.shuffle d pk input in
  let tampered = Array.copy output in
  tampered.(0) <- Elgamal.encrypt d pk Elgamal.marker;
  Alcotest.(check bool) "tampered output rejected" false
    (Shuffle.verify pk ~input ~output:tampered proof)

(* --- one weight lane per folded system ---

   Each batch verifier draws one weight lane for folds it checks
   separately (a bit proof's g side and pk side). This forges a proof
   that satisfies the first fold and breaks only the second: the batch
   must still reject it, and the single-proof fallback must name
   exactly that proof. *)

let test_lane_bit_second_fold () =
  let d = Drbg.create "lane-bit" in
  let _, pk = Elgamal.keygen d in
  let n = 6 in
  for bad = 0 to n - 1 do
    let pairs = Array.init n (fun i -> encrypt_bit_proven d ~pk (i land 1 = 1)) in
    (* c2 carries an extra factor g and the proof is made over that
       ciphertext: both branches' g-side equations hold (c1 = g^r is
       honest), the real branch's pk-side equation does not *)
    let bit = bad land 1 = 1 in
    let r = Group.random_exp d in
    let ct = Elgamal.encrypt_with ~r pk (if bit then Elgamal.marker else Elgamal.one) in
    let ct = { ct with Elgamal.c2 = Group.mul ct.Elgamal.c2 g } in
    pairs.(bad) <- (ct, Bit_proof.prove d ~pk ~r ~bit ct);
    match Bit_proof.verify_batch ~pk pairs with
    | Batch_verify.Rejected [ i ] -> Alcotest.(check int) "names the forged proof" bad i
    | _ -> Alcotest.failf "forged proof %d not named alone" bad
  done

(* A reference Terelius–Wikström prover that draws the same DRBG stream
   as [Shuffle.shuffle] but builds the commitment chain by its
   recursion, B_i = g^{b_i} B_{i-1}^{e'_i}, where the library uses the
   closed form. [alter] rewrites the output before anything is
   committed to it: a proof over an output the witness does not explain
   breaks only the equations that read the altered component.
   Generators and wire layout as in DESIGN.md §3c. *)
let tw_prove ?(alter = Fun.id) d pk input =
  let n = Array.length input in
  let h =
    Array.concat
      (List.init ((n / 1024) + 1) (fun k ->
           let g = Drbg.create (Printf.sprintf "shuffle-generators|%d" k) in
           Array.map
             (fun x -> Group.elt_of_int ((x + 2) * (x + 2) mod Group.p))
             (Drbg.uniform_array g (Group.p - 3) 1024)))
  in
  let pi = Array.init n Fun.id in
  let js = Drbg.uniform_lanes d (fun k -> n - k) (n - 1) in
  for k = 0 to n - 2 do
    let i = n - 1 - k and j = js.(k) in
    let t = pi.(i) in
    pi.(i) <- pi.(j);
    pi.(j) <- t
  done;
  let r = Group.random_exps d n in
  let rand = Group.random_exps d ((4 * n) + 4) in
  let nonce k i = rand.((k * n) + i) in
  let y =
    alter
      (Array.init n (fun i ->
           Elgamal.mul (Elgamal.encrypt_with ~r:r.(i) pk Elgamal.one) input.(pi.(i))))
  in
  let u = Array.make n Group.one in
  Array.iteri (fun i j -> u.(j) <- Group.mul (Group.pow_g (nonce 0 j)) h.(i + 1)) pi;
  let ed =
    Transcript.(create "shuffle|" |> elt pk |> ciphertexts input |> ciphertexts y |> elts u |> digest)
  in
  let e = Batch_verify.weights ~context:"shuffle-e" ~digest:ed n in
  let e' = Array.map (fun j -> e.(j)) pi in
  let bs = Array.make n Group.one and bs' = Array.make n Group.one in
  let prev = ref h.(0) and dn = ref Group.zero_exp in
  for i = 0 to n - 1 do
    bs'.(i) <- Group.mul (Group.pow_g (nonce 2 i)) (Group.pow !prev (nonce 3 i));
    bs.(i) <- Group.mul (Group.pow_g (nonce 1 i)) (Group.pow !prev e'.(i));
    dn := Group.exp_add (nonce 1 i) (Group.exp_mul e'.(i) !dn);
    prev := bs.(i)
  done;
  let alpha = nonce 4 0 and gamma = nonce 4 1 and delta = nonce 4 2 and phi = nonce 4 3 in
  let fold bases =
    Array.fold_left Group.mul Group.one (Array.mapi (fun i b -> Group.pow b (nonce 3 i)) bases)
  in
  let a' = Group.mul (Group.pow_g alpha) (fold (Array.sub h 1 n)) in
  let f1 =
    Group.mul (Group.pow_g (Group.exp_neg phi)) (fold (Array.map (fun c -> c.Elgamal.c1) y))
  in
  let f2 = Group.mul (Group.pow pk (Group.exp_neg phi)) (fold (Array.map (fun c -> c.Elgamal.c2) y)) in
  let c' = Group.pow_g gamma and d' = Group.pow_g delta in
  let v =
    Transcript.(
      create ed |> elts bs |> elts bs' |> elt a' |> elt c' |> elt d' |> elt f1 |> elt f2 |> challenge)
  in
  let resp x nonce = Group.exp_add (Group.exp_mul v x) nonce in
  let sum f = Array.fold_left Group.exp_add Group.zero_exp (Array.init n f) in
  let elts a = Array.map Group.elt_to_int a and exps a = Array.map Group.exp_to_int a in
  let wire =
    Array.concat
      [
        elts u; elts bs; elts bs'; elts [| a'; c'; d'; f1; f2 |];
        exps [| resp (sum (fun j -> Group.exp_mul (nonce 0 j) e.(j))) alpha |];
        exps (Array.init n (fun i -> resp (nonce 1 i) (nonce 2 i)));
        exps [| resp (sum (nonce 0)) gamma; resp !dn delta |];
        exps (Array.init n (fun i -> resp e'.(i) (nonce 3 i)));
        exps [| resp (sum (fun i -> Group.exp_mul r.(i) e'.(i))) phi |];
      ]
  in
  match Shuffle.proof_of_ints wire with
  | Some proof -> (y, proof)
  | None -> Alcotest.fail "the reference proof must decode"

(* The verifier checks the F equation's c1 and c2 components
   separately: a proof over an output with one slot's c1 (or c2) off by
   a factor g satisfies every other equation and must still fail. *)
let test_lane_shuffle_second_fold () =
  let _, pk = Elgamal.keygen (Drbg.create "lane-shuffle-key") in
  let input = make_cts (Drbg.create "lane-shuffle-input") pk 16 in
  let d () = Drbg.create "lane-shuffle" in
  let lib_out, lib_proof = Shuffle.shuffle (d ()) pk input in
  let out, proof = tw_prove (d ()) pk input in
  Alcotest.(check bool) "reference output = library output" true (out = lib_out);
  Alcotest.(check (array int)) "reference proof = library proof" (Shuffle.proof_to_ints lib_proof)
    (Shuffle.proof_to_ints proof);
  List.iter
    (fun (name, alter) ->
      let bad, forged = tw_prove ~alter (d ()) pk input in
      Alcotest.(check bool) name false (Shuffle.verify pk ~input ~output:bad forged))
    [
      ( "c1 alone off",
        fun y ->
          y.(5) <- { (y.(5)) with Elgamal.c1 = Group.mul y.(5).Elgamal.c1 g };
          y );
      ( "c2 alone off",
        fun y ->
          y.(5) <- { (y.(5)) with Elgamal.c2 = Group.mul y.(5).Elgamal.c2 g };
          y );
    ]

let test_shuffle_wrong_input_rejected () =
  let d = drbg () in
  let _, pk = Elgamal.keygen d in
  let input = make_cts d pk 10 in
  let output, proof = Shuffle.shuffle d pk input in
  let other = make_cts d pk 10 in
  Alcotest.(check bool) "different input rejected" false
    (Shuffle.verify pk ~input:other ~output proof)

let test_shuffle_singleton () =
  let d = drbg () in
  let sk, pk = Elgamal.keygen d in
  let input = [| Elgamal.encrypt d pk Elgamal.marker |] in
  let output, proof = Shuffle.shuffle d pk input in
  Alcotest.(check bool) "verifies" true (Shuffle.verify pk ~input ~output proof);
  Alcotest.(check int) "plaintext kept" (Group.elt_to_int Elgamal.marker)
    (Group.elt_to_int (decrypt sk output.(0)))

(* --- fixed-base precomputation and batch inversion --- *)

let test_precomp_matches_pow () =
  let d = drbg () in
  let b = Group.random_elt d in
  let tab = Group.precomp b in
  let check_exp e =
    let e = Group.exp_of_int e in
    Alcotest.(check int)
      (Printf.sprintf "b^%d" (Group.exp_to_int e))
      (Group.elt_to_int (Group.pow b e))
      (Group.elt_to_int (Group.pow_precomp tab e))
  in
  (* window boundaries and the ends of the exponent range *)
  List.iter check_exp [ 0; 1; 2; 255; 256; 257; 65_535; 65_536; Group.q - 2; Group.q - 1 ];
  for _ = 1 to 200 do
    check_exp (Drbg.uniform d Group.q)
  done

let test_pow_g_uses_g_table () =
  (* pow_g is backed by the generator's table; it must still agree with
     the generic square-and-multiply on every shape of exponent. *)
  List.iter
    (fun e ->
      let e = Group.exp_of_int e in
      Alcotest.(check int)
        (Printf.sprintf "g^%d" (Group.exp_to_int e))
        (Group.elt_to_int (Group.pow g e))
        (Group.elt_to_int (Group.pow_g e)))
    [ 0; 1; 255; 256; 65_536; 16_777_216; Group.q - 1 ]

let test_pow_tab_mismatch_rejected () =
  let d = drbg () in
  let b = Group.random_elt d in
  let other = Group.mul b b in
  let tab = Group.precomp b in
  Alcotest.check_raises "mismatched base" (Invalid_argument "Group.pow_tab: table base mismatch")
    (fun () -> ignore (Group.pow_tab ~tab other Group.one_exp))

let test_batch_inv_matches_inv () =
  let d = drbg () in
  let xs = Array.init 257 (fun _ -> Group.random_elt d) in
  let invs = Group.batch_inv xs in
  Alcotest.(check int) "length" (Array.length xs) (Array.length invs);
  Array.iteri
    (fun i x ->
      Alcotest.(check int)
        (Printf.sprintf "inv %d" i)
        (Group.elt_to_int (Group.inv x))
        (Group.elt_to_int invs.(i)))
    xs

let test_batch_inv_edge_cases () =
  Alcotest.(check int) "empty" 0 (Array.length (Group.batch_inv [||]));
  let one = Group.batch_inv [| g |] in
  Alcotest.(check int) "singleton" (Group.elt_to_int (Group.inv g))
    (Group.elt_to_int one.(0));
  let id = Group.batch_inv [| Group.one |] in
  Alcotest.(check int) "identity" (Group.elt_to_int Group.one) (Group.elt_to_int id.(0))

let test_encrypt_with_tab_identical () =
  (* the fixed-base path must produce byte-identical ciphertexts *)
  let d1 = drbg () and d2 = drbg () in
  let _, pk = Elgamal.keygen d1 in
  let _, pk' = Elgamal.keygen d2 in
  assert (Group.elt_to_int pk = Group.elt_to_int pk');
  let tab = Group.precomp pk in
  for i = 0 to 49 do
    let m = if i mod 2 = 0 then Elgamal.one else Elgamal.marker in
    let a = Elgamal.encrypt d1 pk m in
    let b = Elgamal.encrypt ~tab d2 pk m in
    Alcotest.(check int) "c1" (Group.elt_to_int a.Elgamal.c1) (Group.elt_to_int b.Elgamal.c1);
    Alcotest.(check int) "c2" (Group.elt_to_int a.Elgamal.c2) (Group.elt_to_int b.Elgamal.c2)
  done

let test_combine_partial_arr_agrees () =
  let d = drbg () in
  let keys = List.init 3 (fun _ -> Elgamal.keygen d) in
  let joint = Elgamal.joint_pub (List.map snd keys) in
  let m = Group.random_elt d in
  let ct = Elgamal.encrypt d joint m in
  let shares = Array.of_list (List.map (fun (sk, _) -> partial_decrypt sk ct) keys) in
  Alcotest.(check int) "one ciphertext" (Group.elt_to_int m)
    (Group.elt_to_int (Elgamal.combine_partial_arr ct shares));
  let cts = Array.init 17 (fun i -> Elgamal.encrypt d joint (if i mod 2 = 0 then m else Elgamal.one)) in
  let share_tensor =
    List.map (fun (sk, _) -> Array.map (partial_decrypt sk) cts) keys |> Array.of_list
  in
  let plains =
    Elgamal.combine_partial_all cts ~parties:(Array.length share_tensor)
      ~share:(fun p i -> share_tensor.(p).(i))
  in
  Array.iteri
    (fun i ct ->
      Alcotest.(check int)
        (Printf.sprintf "slot %d" i)
        (Group.elt_to_int
           (Elgamal.combine_partial_arr ct
              (Array.of_list (List.map (fun (sk, _) -> partial_decrypt sk ct) keys))))
        (Group.elt_to_int plains.(i)))
    cts

(* --- batch verification and multi-exponentiation --- *)

let naive_multi_exp bases exps =
  let acc = ref Group.one in
  Array.iteri (fun i b -> acc := Group.mul !acc (Group.pow b exps.(i))) bases;
  !acc

let test_multi_exp_edges () =
  Alcotest.(check int) "empty product is identity" (Group.elt_to_int Group.one)
    (Group.elt_to_int (Group.multi_exp ~bases:[||] ~exps:[||]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Group.multi_exp: length mismatch") (fun () ->
      ignore (Group.multi_exp ~bases:[| g |] ~exps:[||]))

(* --- qcheck properties --- *)

let prop_multi_exp_matches_naive =
  (* sizes 0..20 cross the sequential cutover (8); exponents sweep the
     degenerate values 0, 1, q-1 alongside random ones *)
  QCheck.Test.make ~name:"multi_exp = naive fold across the cutover" ~count:60
    QCheck.(pair small_int (int_range 0 20))
    (fun (seed, n) ->
      let d = Drbg.create (string_of_int seed) in
      let bases = Array.init n (fun _ -> Group.random_elt d) in
      let exps =
        Array.init n (fun i ->
            match i land 3 with
            | 0 -> Group.zero_exp
            | 1 -> Group.one_exp
            | 2 -> Group.exp_of_int (Group.q - 1)
            | _ -> Group.random_exp d)
      in
      Group.elt_to_int (Group.multi_exp ~bases ~exps)
      = Group.elt_to_int (naive_multi_exp bases exps))

let prop_bulk_draws_deterministic =
  QCheck.Test.make ~name:"bulk DRBG draws deterministic and in range" ~count:50
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, n) ->
      let d1 = Drbg.create (string_of_int seed) and d2 = Drbg.create (string_of_int seed) in
      let a = Drbg.uniform_array d1 (Group.q - 1) n in
      let b = Drbg.uniform_array d2 (Group.q - 1) n in
      let bound k = (k mod 7) + 2 in
      let c = Drbg.uniform_lanes d1 bound n in
      let c' = Drbg.uniform_lanes d2 bound n in
      (* wide lanes: a bound above 2^30 switches to 8-byte lanes *)
      let w = Drbg.uniform_array d1 ((1 lsl 31) + 17) 16 in
      a = b && c = c'
      && Array.for_all (fun v -> v >= 0 && v < Group.q - 1) a
      && Array.for_all (fun v -> v >= 0 && v < (1 lsl 31) + 17) w
      &&
      let ok = ref true in
      Array.iteri (fun k v -> if v < 0 || v >= bound k then ok := false) c;
      !ok)

(* HMAC-DRBG in the byte formulation, straight from SP 800-90A over
   [Hmac]: K as a keyed midstate pair, V as a 32-byte string, and the
   lane readers over [generate]'s bytes. [Drbg] keeps K and V in words
   and must give the same bytes for every request sequence. *)
module Ref_drbg = struct
  type t = { mutable key : Hmac.keyed; mutable v : string }

  let update t provided =
    let step sep =
      t.key <- Hmac.keyed (hmac t.key (t.v ^ sep ^ provided));
      t.v <- hmac t.key t.v
    in
    step "\x00";
    if provided <> "" then step "\x01"

  let create ?(personalization = "") seed =
    let t = { key = Hmac.keyed (String.make 32 '\x00'); v = String.make 32 '\x01' } in
    update t (seed ^ personalization);
    t

  let generate t n =
    let out = Buffer.create n in
    while Buffer.length out < n do
      t.v <- hmac t.key t.v;
      Buffer.add_string out (String.sub t.v 0 (min 32 (n - Buffer.length out)))
    done;
    update t "";
    Buffer.contents out

  (* a 4-byte lane, or the top 62 bits of an 8-byte one *)
  let lane s off bytes =
    let v = ref 0 in
    for i = 0 to min bytes 7 - 1 do
      v := (!v lsl 8) lor Char.code s.[off + i]
    done;
    if bytes = 8 then (!v lsl 6) lor (Char.code s.[off + 7] lsr 2) else !v

  let wide_limit n = max_int - (((max_int mod n) + 1) mod n)

  let rec uniform t n =
    let v = lane (generate t 8) 0 8 in
    if v <= wide_limit n then v mod n else uniform t n

  let uniform_lanes t bound count =
    if count = 0 then [||]
    else begin
      let wide = List.exists (fun i -> bound i > 1 lsl 30) (List.init count Fun.id) in
      let bytes = if wide then 8 else 4 in
      let s = generate t (bytes * count) in
      Array.init count (fun i ->
          let n = bound i in
          let v = lane s (bytes * i) bytes in
          let limit = if wide then wide_limit n else (1 lsl 32) - 1 - ((1 lsl 32) mod n) in
          if v <= limit then v mod n else uniform t n)
    end
end

type drbg_request =
  | Generate of int
  | Uniform of int
  | Uniform_array of int * int (* bound, count *)
  | Uniform_lanes of int list

(* Bounds just above 2^61 reject about half of all 62-bit draws and
   0x30000001 about 6% of 32-bit lanes, so the fallback single draws
   run in most sequences. *)
let drbg_request_gen =
  let open QCheck.Gen in
  let near_2_61 = map (fun k -> (1 lsl 61) + k) (int_bound 1000) in
  frequency
    [
      (3, map (fun n -> Generate n) (int_bound 300));
      (2, map (fun n -> Uniform n) near_2_61);
      (1, map (fun n -> Uniform n) (int_range 1 1000));
      (2, map2 (fun k c -> Uniform_array (0x30000001 + k, c)) (int_bound 1000) (int_bound 40));
      (2, map2 (fun n c -> Uniform_array (n, c)) near_2_61 (int_bound 20));
      ( 2,
        map
          (fun bs -> Uniform_lanes bs)
          (list_size (int_bound 20) (oneofl [ 2; 7; 0x30000001; Group.q; (1 lsl 61) + 3 ])) );
    ]

let show_drbg_request = function
  | Generate n -> Printf.sprintf "generate %d" n
  | Uniform n -> Printf.sprintf "uniform %d" n
  | Uniform_array (n, c) -> Printf.sprintf "uniform_array %d x%d" n c
  | Uniform_lanes bs -> "uniform_lanes [" ^ String.concat ";" (List.map string_of_int bs) ^ "]"

let prop_drbg_matches_reference =
  let maybe_empty = QCheck.Gen.(frequency [ (1, return ""); (4, string_size (int_bound 80)) ]) in
  QCheck.Test.make ~name:"Drbg = byte-level reference HMAC-DRBG" ~count:200
    (QCheck.make
       ~print:(fun (seed, pers, reqs) ->
         Printf.sprintf "seed %S, personalization %S: %s" seed pers
           (String.concat ", " (List.map show_drbg_request reqs)))
       QCheck.Gen.(triple maybe_empty maybe_empty (list_size (int_bound 12) drbg_request_gen)))
    (fun (seed, personalization, reqs) ->
      let d = Drbg.create ~personalization seed in
      let r = Ref_drbg.create ~personalization seed in
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      let run = function
        | Generate n -> (Drbg.generate d n, Ref_drbg.generate r n)
        | Uniform n -> (string_of_int (Drbg.uniform d n), string_of_int (Ref_drbg.uniform r n))
        | Uniform_array (n, c) ->
          (ints (Drbg.uniform_array d n c), ints (Ref_drbg.uniform_lanes r (fun _ -> n) c))
        | Uniform_lanes bs ->
          let bs = Array.of_list bs in
          let bound i = bs.(i) in
          ( ints (Drbg.uniform_lanes d bound (Array.length bs)),
            ints (Ref_drbg.uniform_lanes r bound (Array.length bs)) )
      in
      List.for_all (fun req -> let a, b = run req in a = b) (reqs @ [ Generate 32 ]))

let prop_batch_weights =
  QCheck.Test.make ~name:"batch weights: in [1, q), stable, prefix-closed, context-bound"
    ~count:100
    QCheck.(triple small_int (int_bound 200) (int_bound 200))
    (fun (seed, n1, n2) ->
      let digest = Sha256.digest (string_of_int seed) in
      let short = min n1 n2 and long = max n1 n2 in
      let w context n = Array.map Group.exp_to_int (Batch_verify.weights ~context ~digest n) in
      let a = w "a" long in
      Array.for_all (fun v -> v >= 1 && v < Group.q) a
      && a = w "a" long
      && Array.sub a 0 short = w "a" short
      && (long = 0 || w "b" long <> a))

let prop_bit_batch_forgery_positions =
  QCheck.Test.make ~name:"bit batch rejects exactly the forged position" ~count:30
    QCheck.(triple small_int (int_range 1 10) (int_range 0 9))
    (fun (seed, n, pos) ->
      let pos = pos mod n in
      let d = Drbg.create (string_of_int seed) in
      let _, pk = Elgamal.keygen d in
      let pairs = Array.init n (fun i -> encrypt_bit_proven d ~pk (i land 1 = 1)) in
      Bit_proof.verify_batch ~pk pairs = Batch_verify.Accepted
      &&
      (* a non-bit plaintext with a forged proof at [pos] is named *)
      let r = Group.random_exp d in
      let bad = Elgamal.encrypt_with ~r pk (Group.mul Elgamal.marker Elgamal.marker) in
      let forged = Bit_proof.prove d ~pk ~r ~bit:true bad in
      pairs.(pos) <- (bad, forged);
      match Bit_proof.verify_batch ~pk pairs with
      | Batch_verify.Rejected [ i ] -> i = pos
      | _ -> false)

let prop_elgamal_roundtrip =
  QCheck.Test.make ~name:"elgamal roundtrip any exponent" ~count:100 QCheck.small_int
    (fun seed ->
      let d = Drbg.create (string_of_int seed) in
      let sk, pk = Elgamal.keygen d in
      let m = Group.random_elt d in
      Group.elt_to_int (decrypt sk (Elgamal.encrypt d pk m)) = Group.elt_to_int m)

(* --- four-lane kernels against the one-lane reference ---

   The reference power is plain square-and-multiply with [mod], which
   is exact for operands below p < 2^31. *)

let ref_pow b e =
  let rec go b e acc =
    if e = 0 then acc else go (b * b mod Group.p) (e lsr 1) (if e land 1 = 1 then acc * b mod Group.p else acc)
  in
  go (b mod Group.p) e 1

let ref_member x = x >= 1 && x < Group.p && ref_pow x Group.q = 1

let prop_is_member_reference =
  (* any int: negatives, the whole 63-bit range, values at and past p,
     and members, which a uniform int almost never is *)
  let gen =
    QCheck.Gen.(
      frequency
        [
          (2, int);
          (2, int_range (-5) ((2 * Group.p) + 5));
          (1, oneofl [ max_int; min_int; max_int - 1; min_int + 1; -1; 1 lsl 31; 1 lsl 62 ]);
          (2, map (fun k -> Group.elt_to_int (Group.pow_g (Group.exp_of_int k))) int);
          (1, map (fun k -> Group.p - Group.elt_to_int (Group.pow_g (Group.exp_of_int k))) int);
        ])
  in
  QCheck.Test.make ~name:"is_member = range check and x^q = 1" ~count:2000
    (QCheck.make ~print:string_of_int gen) (fun x -> Group.is_member x = ref_member x)

let test_is_member_edges () =
  List.iter
    (fun (name, x, want) ->
      Alcotest.(check bool) name want (Group.is_member x);
      Alcotest.(check bool) (name ^ " (reference)") want (ref_member x);
      Alcotest.(check bool) (name ^ " (batched)") want
        (match Group.elts_of_ints [| x |] with _ -> true | exception Invalid_argument _ -> false))
    [
      ("0", 0, false);
      ("1", 1, true);
      ("g", Group.elt_to_int g, true);
      ("p - 1 = -1", Group.p - 1, false);
      ("p", Group.p, false);
      ("p + 1", Group.p + 1, false);
      ("2^31", 1 lsl 31, false);
    ]

(* every length 0..13 (three full lane groups and every tail), with one
   bad value planted at each index in turn; 2^40 is out of range, so
   its lane is only rejected through the range check *)
let test_elts_of_ints_positions () =
  let d = drbg () in
  for n = 0 to 13 do
    let members = Array.init n (fun _ -> Group.elt_to_int (Group.random_elt d)) in
    Alcotest.(check (array int))
      (Printf.sprintf "length %d accepted" n)
      members
      (Array.map Group.elt_to_int (Group.elts_of_ints members));
    List.iter
      (fun bad ->
        for i = 0 to n - 1 do
          let a = Array.copy members in
          a.(i) <- bad;
          Alcotest.check_raises
            (Printf.sprintf "length %d, %d at %d" n bad i)
            (Invalid_argument "Group.elt_of_int: not a subgroup element")
            (fun () -> ignore (Group.elts_of_ints a))
        done)
      [ Group.p - 1; 1 lsl 40; 0; -4 ]
  done

let test_pow_lanes_matches_pow () =
  let d = drbg () in
  let bases = [| Group.one; g; Group.random_elt d; Group.random_elt d |] in
  let exps =
    [| Group.zero_exp; Group.one_exp; Group.exp_of_int (Group.q - 1); Group.random_exp d;
       Group.random_exp d |]
  in
  (* every exponent in every lane, beside every base *)
  Array.iter
    (fun b ->
      Array.iteri
        (fun k e ->
          let e' = exps.((k + 3) mod Array.length exps) in
          let b' = Group.random_elt d in
          let l = Group.pow_lanes b e b' e' b' e b e' in
          let want = [ Group.pow b e; Group.pow b' e'; Group.pow b' e; Group.pow b e' ] in
          Alcotest.(check (list int)) "lanes = pow"
            (List.map Group.elt_to_int want)
            (List.map Group.elt_to_int [ l.Group.l0; l.Group.l1; l.Group.l2; l.Group.l3 ]))
        exps)
    bases;
  for _ = 1 to 200 do
    let b = Array.init 4 (fun _ -> Group.random_elt d) in
    let e = Array.init 4 (fun _ -> Group.random_exp d) in
    let l = Group.pow_lanes b.(0) e.(0) b.(1) e.(1) b.(2) e.(2) b.(3) e.(3) in
    Alcotest.(check (list int)) "random lanes = reference"
      (List.init 4 (fun i -> ref_pow (Group.elt_to_int b.(i)) (Group.exp_to_int e.(i))))
      (List.map Group.elt_to_int [ l.Group.l0; l.Group.l1; l.Group.l2; l.Group.l3 ])
  done

let prop_group_pow_cycle =
  QCheck.Test.make ~name:"g^(x mod q) well-defined" ~count:200 QCheck.int (fun x ->
      let e = Group.exp_of_int x in
      let v = Group.elt_to_int (Group.pow_g e) in
      Group.is_member v)

let prop_sha256_incremental =
  (* three streaming updates split at two random cuts: partial-block
     fills, whole blocks straight from the input, and in-place padding
     all meet the one-shot path *)
  QCheck.Test.make ~name:"sha256 incremental = one-shot" ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_bound 300)) (int_bound 300) (int_bound 300))
    (fun (msg, c1, c2) ->
      let n = String.length msg in
      let c1 = min c1 n and c2 = min c2 n in
      let lo = min c1 c2 and hi = max c1 c2 in
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub msg 0 lo);
      Sha256.update ctx (String.sub msg lo (hi - lo));
      Sha256.update ctx (String.sub msg hi (n - hi));
      Sha256.finalize ctx = Sha256.digest msg)

(* RFC 2104 spelled out on one-shot digests, with no midstate reuse. *)
let hmac_by_definition ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let pad fill =
    String.init 64 (fun i ->
        Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor fill))
  in
  Sha256.digest (pad 0x5c ^ Sha256.digest (pad 0x36 ^ msg))

let prop_hmac_keyed_matches =
  (* keys past 64 bytes take the hash-the-key-first path *)
  QCheck.Test.make ~name:"hmac keyed midstates = RFC 2104" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 150)) (string_of_size (QCheck.Gen.int_bound 200)))
    (fun (key, msg) -> hmac (Hmac.keyed key) msg = hmac_by_definition ~key msg)

let prop_hmac_words_match =
  (* rekey and one-block word messages, against RFC 2104 on bytes; the
     bytes of [msg] past [len] must not reach the MAC *)
  let words s =
    Array.init (String.length s / 4) (fun i ->
        Int32.to_int (String.get_int32_be s (4 * i)) land 0xffffffff)
  in
  QCheck.Test.make ~name:"hmac word path = RFC 2104" ~count:200
    QCheck.(
      triple (string_of_size (Gen.return 32)) (string_of_size (Gen.return 56)) (int_bound 55))
    (fun (key, msg, len) ->
      let k = Hmac.keyed "an earlier key" in
      Hmac.rekey k (words key);
      let out = Array.make 8 0 in
      Hmac.mac_words k (words msg) ~len out;
      string_of_words out = hmac_by_definition ~key (String.sub msg 0 len))

(* SP 800-90A instantiation on one-shot digests: K and V after the
   update with the seed material, then the first generate block
   V = HMAC(K, V). [Drbg.create] must start its stream exactly there,
   whatever midstates it carries over from instantiation. The provided
   lengths straddle the one-block message (V || sep is 33 bytes, so 22
   more fill a block) and run to several blocks. *)
let test_drbg_create_reference () =
  List.iter
    (fun len ->
      let provided = String.init len (fun i -> Char.chr (97 + (i mod 26))) in
      let mac key msg = hmac_by_definition ~key msg in
      let step (k, v) sep =
        let k = mac k (v ^ sep ^ provided) in
        (k, mac k v)
      in
      let kv = step (String.make 32 '\x00', String.make 32 '\x01') "\x00" in
      let k, v = if provided = "" then kv else step kv "\x01" in
      Alcotest.(check string)
        (Printf.sprintf "%d bytes of seed material" len)
        (Sha256.to_hex (mac k v))
        (Sha256.to_hex (Drbg.generate (Drbg.create ~personalization:provided "") 32)))
    [ 0; 1; 22; 23; 86; 87; 200 ]

let prop_sha256_pool_workers =
  (* compressions running concurrently on pool workers (each with its
     domain's schedule scratch, all sharing one prepared HMAC key) give
     exactly the sequential digests *)
  QCheck.Test.make ~name:"sha256/hmac on pool workers = sequential" ~count:3 QCheck.small_int
    (fun seed ->
      let msg i = String.init (((i * 7) + seed) mod 300) (fun j -> Char.chr ((i + j) land 0xff)) in
      let key = Hmac.keyed (string_of_int seed) in
      let work i = Sha256.digest (msg i) ^ hmac key (msg i) in
      let sequential = Array.init 10_000 work in
      let before = Parallel.jobs () in
      Fun.protect
        ~finally:(fun () -> Parallel.set_jobs before)
        (fun () ->
          Parallel.set_jobs 4;
          Parallel.parallel_init ~min_chunk:16 10_000 work = sequential))

let prop_sha256_finalized_rejects =
  QCheck.Test.make ~name:"sha256 finalized context rejects reuse" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_bound 130))
    (fun msg ->
      let ctx = Sha256.init () in
      Sha256.update ctx msg;
      ignore (Sha256.finalize ctx);
      let raises f want =
        match f () with
        | () -> false
        | exception Invalid_argument m -> m = want
      in
      raises (fun () -> Sha256.update ctx "x") "Sha256.update: context already finalized"
      && raises (fun () -> ignore (Sha256.finalize ctx)) "Sha256.finalize: context already finalized")

(* A transcript hashes exactly the concatenation of its fields, with
   elements and exponents as four big-endian bytes. Each field
   sequence is checked behind every prefix length 0..63, so its first
   4-byte field lands at every offset of a 64-byte block, including the
   61..63 that split it across a compression. *)
type field =
  | Str of string
  | Elt of Group.elt
  | Exp of Group.exp
  | Exps of Group.exp array
  | Cts of Elgamal.ciphertext array

let be32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let field_gen =
  QCheck.Gen.(
    let elt = map (fun x -> Group.pow_g (Group.exp_of_int x)) nat in
    let exp = map Group.exp_of_int int in
    let arr g = array_size (int_bound 5) g in
    frequency
      [
        (2, map (fun s -> Str s) (string_size (int_bound 70)));
        (3, map (fun x -> Elt x) elt);
        (3, map (fun e -> Exp e) exp);
        (1, map (fun a -> Exps a) (arr exp));
        (1, map (fun a -> Cts a) (arr (map2 (fun c1 c2 -> { Elgamal.c1; c2 }) elt elt)));
      ])

let prop_transcript_matches_concat =
  QCheck.Test.make ~name:"transcript = sha256 of the field concatenation" ~count:100
    (QCheck.make QCheck.Gen.(pair (string_size (return 63)) (list_size (int_bound 40) field_gen)))
    (fun (prefix, fields) ->
      let legacy = function
        | Str s -> s
        | Elt x -> be32 (Group.elt_to_int x)
        | Exp e -> be32 (Group.exp_to_int e)
        | Exps a -> String.concat "" (Array.to_list (Array.map (fun e -> be32 (Group.exp_to_int e)) a))
        | Cts a ->
          String.concat ""
            (Array.to_list
               (Array.map
                  (fun { Elgamal.c1; c2 } -> be32 (Group.elt_to_int c1) ^ be32 (Group.elt_to_int c2))
                  a))
      in
      let body = String.concat "" (List.map legacy fields) in
      List.for_all
        (fun len ->
          let tag = String.sub prefix 0 len in
          let absorb t = function
            | Str s -> Transcript.string s t
            | Elt x -> Transcript.elt x t
            | Exp e -> Transcript.exp e t
            | Exps a -> Transcript.exps a t
            | Cts a -> Transcript.ciphertexts a t
          in
          Transcript.digest (List.fold_left absorb (Transcript.create tag) fields)
          = Sha256.digest (tag ^ body))
        (List.init 64 Fun.id))

(* Every component of a shuffle proof is bound by some equation:
   changing any one of them — each of the five n-vectors at a random
   index, each of the nine constants — makes verify fail. Elements are
   multiplied by g (still members), exponents incremented, so each
   altered proof still decodes. Wire offsets: u, B, B' at 0, n, 2n;
   A', C', D', F'.c1, F'.c2 at 3n..3n+4; k_A at 3n+5, k_B at 3n+6, k_C
   and k_D at 4n+6, k_E at 4n+8, k_F at 5n+8. *)
let prop_shuffle_proof_components_bound =
  QCheck.Test.make ~name:"altering any one shuffle proof component fails verify" ~count:15
    QCheck.(triple small_int (int_range 1 20) (list_of_size (Gen.return 5) small_nat))
    (fun (seed, n, picks) ->
      let d = Drbg.create (Printf.sprintf "components|%d" seed) in
      let _, pk = Elgamal.keygen d in
      let input = make_cts d pk n in
      let output, proof = Shuffle.shuffle d pk input in
      let wire = Shuffle.proof_to_ints proof in
      let slot k = List.nth picks k mod n in
      let offsets =
        [ slot 0; n + slot 1; (2 * n) + slot 2; (3 * n) + 6 + slot 3; (4 * n) + 8 + slot 4 ]
        @ List.init 5 (fun k -> (3 * n) + k)
        @ [ (3 * n) + 5; (4 * n) + 6; (4 * n) + 7; (5 * n) + 8 ]
      in
      let altered off =
        let a = Array.copy wire in
        a.(off) <-
          (if off < (3 * n) + 5 then
             Group.elt_to_int (Group.mul (Group.elt_of_int a.(off)) g)
           else (a.(off) + 1) mod Group.q);
        match Shuffle.proof_of_ints a with
        | Some p -> Shuffle.verify pk ~input ~output p
        | None -> true
      in
      Shuffle.verify pk ~input ~output proof
      && List.length offsets = 14
      && not (List.exists altered offsets))

let prop_shuffle_preserves_plaintext_multiset =
  QCheck.Test.make ~name:"shuffle preserves plaintext multiset" ~count:20
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, n) ->
      let d = Drbg.create (string_of_int seed) in
      let sk, pk = Elgamal.keygen d in
      let input =
        Array.init n (fun i ->
            Elgamal.encrypt d pk (if i mod 3 = 0 then Elgamal.marker else Elgamal.one))
      in
      let output = Shuffle.shuffle_unproven d pk input in
      let plain cts =
        Array.to_list cts
        |> List.map (fun ct -> Group.elt_to_int (decrypt sk ct))
        |> List.sort compare
      in
      plain input = plain output)

let prop_schnorr_sig_sound =
  QCheck.Test.make ~name:"schnorr signatures verify" ~count:100
    QCheck.(pair small_int string)
    (fun (seed, msg) ->
      let d = Drbg.create (string_of_int seed) in
      let kp = Schnorr_sig.keygen d in
      Schnorr_sig.verify ~pub:kp.Schnorr_sig.pub msg
        (Schnorr_sig.sign d ~priv:kp.Schnorr_sig.priv msg))

let prop_bit_proof_sound =
  QCheck.Test.make ~name:"bit proofs verify for both bits" ~count:50
    QCheck.(pair small_int bool)
    (fun (seed, bit) ->
      let d = Drbg.create (string_of_int seed) in
      let _, pk = Elgamal.keygen d in
      let ct, proof = encrypt_bit_proven d ~pk bit in
      Bit_proof.verify ~pk ct proof)

let prop_pow_precomp_agrees =
  QCheck.Test.make ~name:"fixed-base precomp = generic pow" ~count:100
    QCheck.(pair small_int int)
    (fun (seed, x) ->
      let d = Drbg.create (string_of_int seed) in
      let b = Group.random_elt d in
      let tab = Group.precomp b in
      let e = Group.exp_of_int x in
      Group.elt_to_int (Group.pow_precomp tab e) = Group.elt_to_int (Group.pow b e))

let prop_additive_sharing =
  QCheck.Test.make ~name:"additive sharing roundtrip" ~count:200
    QCheck.(pair small_int (int_bound 1_000_000))
    (fun (seed, v) ->
      let d = Drbg.create (string_of_int seed) in
      let shares = additive_shares d ~n:4 in
      unblind (Secret_sharing.blind v shares) shares = v)

(* --- allocation per slot ---

   Proving and verifying stream every transcript through one SHA-256
   context, so what a slot allocates is its proof record, one context
   and one digest — not a transcript string. DRBG draws and batch
   weights compress word blocks in place, so a request allocates its
   result and little else; an insert adds one ciphertext to its slot
   hash. Minor words per slot over
   2^10 slots at jobs=1 (pool workers would allocate on their own
   domains, which [Gc.minor_words] does not count); the bounds are the
   measured values in this (dev, -opaque) build with ~25% headroom. *)

let minor_words_per_slot ~slots f =
  let before_jobs = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs before_jobs)
    (fun () ->
      Parallel.set_jobs 1;
      let before = Gc.minor_words () in
      f ();
      (Gc.minor_words () -. before) /. float_of_int slots)

let test_alloc_per_slot () =
  let slots = 1 lsl 10 in
  let d = Drbg.create "alloc" in
  let secret = Group.random_exp d in
  let public1 = Group.pow_g secret in
  let _, pk = Elgamal.keygen d in
  let input = make_cts d pk slots in
  let statements =
    Array.map (fun ct -> (ct.Elgamal.c1, Group.pow ct.Elgamal.c1 secret)) input
  in
  let ks = Group.random_exps d slots in
  let proofs = Array.make slots { Sigma.a1 = Group.one; a2 = Group.one; z = Group.zero_exp } in
  let prove () =
    for i = 0 to slots - 1 do
      let base2, public2 = statements.(i) in
      proofs.(i) <-
        Sigma.dleq_prove_with ~public2 ~public1 ~k:ks.(i) ~secret ~base2 ~context:"alloc" ()
    done
  in
  let output, proof = Shuffle.shuffle d pk input in
  let shuffle_verify () =
    if not (Shuffle.verify pk ~input ~output proof) then Alcotest.fail "honest shuffle rejected"
  in
  (* A 2^10-lane result array goes straight to the major heap, which
     [Gc.minor_words] does not see; 16-lane requests keep the result in
     the minor heap next to each request's own working state. *)
  let per_16 f () =
    for _ = 1 to slots / 16 do
      ignore (Sys.opaque_identity (f 16))
    done
  in
  let draws = per_16 (Drbg.uniform_array d Group.q) in
  let digest = Sha256.digest "alloc" in
  let weights = per_16 (Batch_verify.weights ~context:"alloc" ~digest) in
  let table =
    Psc.Table.create ~table_size:slots ~key:(Hmac.keyed "alloc") ~joint:pk ~drbg:d ()
  in
  let items = Array.init slots (Printf.sprintf "10.%d.%d.1" (slots / 256)) in
  let inserts () = Array.iter (Psc.Table.insert table) items in
  let key = Hmac.keyed "alloc" in
  let item_slots () =
    Array.iter
      (fun item -> ignore (Sys.opaque_identity (Psc.Item.slot ~key ~table_size:slots item)))
      items
  in
  let creates () =
    for _ = 1 to slots do
      ignore (Sys.opaque_identity (Drbg.create ~personalization:"alloc" "seed"))
    done
  in
  List.iter
    (fun (name, f, bound) ->
      let per_slot = minor_words_per_slot ~slots f in
      if per_slot > bound then
        Alcotest.failf "%s allocated %.2f minor words/slot (bound %g)" name per_slot bound)
    [
      (* measured 37.0; string-built transcripts took 96.0 *)
      ("dleq_prove_with", prove, 46.);
      (* measured 1.32; 28.2 with DRBG-drawn weights, 114.0 with
         string-built transcripts *)
      ("Shuffle.verify", shuffle_verify, 1.7);
      (* measured 1.06, 5.44 and 46.0 (40.0 of them Item.slot's HMAC);
         the byte-level DRBG took 28.1, 65.3 and 362.0 *)
      ("Drbg.uniform_array", draws, 1.4);
      ("Batch_verify.weights", weights, 7.2);
      ("Table.insert", inserts, 47.);
      (* measured 40.0: one message context, the inner digest and the
         MAC's words; copying two keyed contexts and building two
         digest strings took 62.0 *)
      ("Item.slot", item_slots, 41.);
      (* per DRBG, measured 170.0; instantiating over keyed contexts
         and then deriving K's midstates again took 715.0 *)
      ("Drbg.create", creates, 171.);
    ]

(* --- proof known answers ---

   Every challenge, proof and batch weight is a hash over a transcript;
   these pin the bytes each proof system publishes at fixed DRBG seeds,
   so a change to how transcripts are hashed cannot move a proof. *)

let ints = Alcotest.(array int)

let test_kat_schnorr () =
  let d = Drbg.create "kat-schnorr" in
  let secret = Group.random_exp d in
  let { Sigma.commitment; response } = Sigma.schnorr_prove d ~secret ~context:"kat" in
  Alcotest.check ints "schnorr proof" [| 693909204; 200773300 |]
    [| Group.elt_to_int commitment; Group.exp_to_int response |]

let test_kat_dleq () =
  let d = Drbg.create "kat-dleq" in
  let secret = Group.random_exp d in
  let k = Group.random_exp d in
  let base2 = Group.random_elt d in
  let { Sigma.a1; a2; z } =
    Sigma.dleq_prove_with ~public1:(Group.pow_g secret) ~k ~secret ~base2 ~context:"kat" ()
  in
  Alcotest.check ints "dleq proof" [| 550454679; 730303105; 256918695 |]
    [| Group.elt_to_int a1; Group.elt_to_int a2; Group.exp_to_int z |]

let test_kat_bit_proof () =
  let d = Drbg.create "kat-bit" in
  let _, pk = Elgamal.keygen d in
  List.iter
    (fun (bit, want) ->
      let ct, proof = encrypt_bit_proven d ~pk bit in
      Alcotest.check ints
        (Printf.sprintf "bit %b proof" bit)
        want
        (Array.append
           [| Group.elt_to_int ct.Elgamal.c1; Group.elt_to_int ct.Elgamal.c2 |]
           (Bit_proof.to_ints proof)))
    [
      ( false,
        [| 1467325344; 1803370747; 384255329; 956504261; 312517925; 277522489; 1453681293;
           2067424738; 169502303; 272201458 |] );
      ( true,
        [| 837876962; 927457549; 1544111779; 676341976; 445914389; 704993911; 1470473228;
           717224331; 1000828792; 381310393 |] );
    ]

let test_kat_shuffle () =
  let d = Drbg.create "kat-shuffle" in
  let _, pk = Elgamal.keygen d in
  let input = make_cts d pk 16 in
  let _, proof = Shuffle.shuffle d pk input in
  let wire = Shuffle.proof_to_ints proof in
  Alcotest.(check string) "proof_to_ints sha256"
    "ad7293bdc17c125b9ac6e25543101736c3e0a104dc4ec30ca94ff0e3194926e2"
    (Sha256.hex (String.concat "," (Array.to_list (Array.map string_of_int wire))))

let test_kat_schnorr_sig () =
  let d = Drbg.create "kat-sig" in
  let kp = Schnorr_sig.keygen d in
  let s = Schnorr_sig.sign d ~priv:kp.Schnorr_sig.priv "kat message" in
  Alcotest.(check string) "signature, 4 big-endian bytes per exponent" "3eb72e8b10d6d3d0"
    (Printf.sprintf "%08x%08x"
       (Group.exp_to_int s.Schnorr_sig.challenge)
       (Group.exp_to_int s.Schnorr_sig.response))

let () =
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "reuse rejected" `Quick test_sha256_reuse_rejected;
          Alcotest.test_case "padding-edge known answers" `Quick test_sha256_padding_edges;
          Alcotest.test_case "word-level padding = byte path" `Quick test_sha256_pad_words;
        ] );
      ("hmac", [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors ]);
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "personalization" `Quick test_drbg_personalization;
          Alcotest.test_case "uniform range" `Quick test_drbg_uniform_range;
          Alcotest.test_case "SP 800-90A known answer" `Quick test_drbg_known_answer;
          Alcotest.test_case "create = SP 800-90A instantiate" `Quick test_drbg_create_reference;
        ] );
      ( "group",
        [
          Alcotest.test_case "constants" `Quick test_group_constants;
          Alcotest.test_case "group laws" `Quick test_group_laws;
          Alcotest.test_case "pow laws" `Quick test_group_pow;
          Alcotest.test_case "element order" `Quick test_group_element_order;
          Alcotest.test_case "exponent field" `Quick test_exp_field;
          Alcotest.test_case "exp_of_int negative" `Quick test_exp_of_int_negative;
          Alcotest.test_case "elt_of_int rejects" `Quick test_elt_of_int_rejects;
          Alcotest.test_case "is_member edge cases" `Quick test_is_member_edges;
          Alcotest.test_case "elts_of_ints every lane and tail" `Quick
            test_elts_of_ints_positions;
          Alcotest.test_case "pow_lanes matches pow" `Quick test_pow_lanes_matches_pow;
          Alcotest.test_case "hash_to_exp" `Quick test_hash_to_exp_stable;
          Alcotest.test_case "hash_to_elt member" `Quick test_hash_to_elt_member;
          Alcotest.test_case "precomp matches pow" `Quick test_precomp_matches_pow;
          Alcotest.test_case "pow_g via g table" `Quick test_pow_g_uses_g_table;
          Alcotest.test_case "pow_tab mismatch rejected" `Quick test_pow_tab_mismatch_rejected;
          Alcotest.test_case "batch_inv matches inv" `Quick test_batch_inv_matches_inv;
          Alcotest.test_case "batch_inv edge cases" `Quick test_batch_inv_edge_cases;
          Alcotest.test_case "multi_exp edge cases" `Quick test_multi_exp_edges;
        ] );
      ( "known_answers",
        [
          Alcotest.test_case "schnorr proof" `Quick test_kat_schnorr;
          Alcotest.test_case "dleq_prove_with proof" `Quick test_kat_dleq;
          Alcotest.test_case "bit proofs" `Quick test_kat_bit_proof;
          Alcotest.test_case "shuffle proof digest" `Quick test_kat_shuffle;
          Alcotest.test_case "schnorr signature" `Quick test_kat_schnorr_sig;
        ] );
      ( "allocation",
        [ Alcotest.test_case "words per slot, prove and verify" `Quick test_alloc_per_slot ] );
      ( "batch_verify",
        [
          Alcotest.test_case "bit proof: pk side alone caught" `Quick test_lane_bit_second_fold;
          Alcotest.test_case "shuffle: c2 fold alone caught" `Quick
            test_lane_shuffle_second_fold;
        ] );
      ( "elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_elgamal_roundtrip;
          Alcotest.test_case "rerandomize" `Quick test_elgamal_rerandomize;
          Alcotest.test_case "homomorphic" `Quick test_elgamal_homomorphic;
          Alcotest.test_case "pow bit invariant" `Quick test_elgamal_pow_identity_invariant;
          Alcotest.test_case "joint decryption" `Quick test_elgamal_joint_decryption;
          Alcotest.test_case "missing share fails" `Quick test_elgamal_joint_missing_share_fails;
          Alcotest.test_case "encrypt with table identical" `Quick test_encrypt_with_tab_identical;
          Alcotest.test_case "combine_partial_arr agrees" `Quick test_combine_partial_arr_agrees;
        ] );
      ( "sigma",
        [
          Alcotest.test_case "schnorr" `Quick test_schnorr;
          Alcotest.test_case "dleq" `Quick test_dleq;
        ] );
      ( "schnorr_sig",
        [
          Alcotest.test_case "roundtrip" `Quick test_schnorr_sig_roundtrip;
          Alcotest.test_case "distinct messages" `Quick test_schnorr_sig_distinct_messages;
        ] );
      ( "bit_proof",
        [
          Alcotest.test_case "valid bits accepted" `Quick test_bit_proof_valid_bits;
          Alcotest.test_case "non-bit rejected" `Quick test_bit_proof_rejects_non_bit;
          Alcotest.test_case "ciphertext binding" `Quick test_bit_proof_rejects_mismatched_ciphertext;
          Alcotest.test_case "hides the bit" `Quick test_bit_proof_hides_bit;
        ] );
      ( "secret_sharing",
        [
          Alcotest.test_case "additive roundtrip" `Quick test_additive_roundtrip;
          Alcotest.test_case "additive negative" `Quick test_additive_negative_value;
          Alcotest.test_case "partial unblind garbage" `Quick test_additive_partial_is_garbage;
        ] );
      ( "shuffle",
        [
          Alcotest.test_case "verifies" `Quick test_shuffle_verifies;
          Alcotest.test_case "preserves plaintexts" `Quick test_shuffle_preserves_plaintexts;
          Alcotest.test_case "tamper detected" `Quick test_shuffle_tamper_detected;
          Alcotest.test_case "wrong input rejected" `Quick test_shuffle_wrong_input_rejected;
          Alcotest.test_case "singleton" `Quick test_shuffle_singleton;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_elgamal_roundtrip; prop_group_pow_cycle; prop_pow_precomp_agrees;
            prop_is_member_reference;
            prop_additive_sharing;
            prop_sha256_incremental; prop_hmac_keyed_matches; prop_hmac_words_match; prop_sha256_pool_workers;
            prop_sha256_finalized_rejects; prop_transcript_matches_concat;
            prop_shuffle_preserves_plaintext_multiset;
            prop_shuffle_proof_components_bound;
            prop_schnorr_sig_sound; prop_bit_proof_sound;
            prop_multi_exp_matches_naive; prop_bulk_draws_deterministic;
            prop_drbg_matches_reference; prop_batch_weights;
            prop_bit_batch_forgery_positions;
          ] );
    ]
