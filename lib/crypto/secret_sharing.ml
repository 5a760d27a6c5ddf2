let modulus = 1 lsl 61

let blind v shares =
  let v = ((v mod modulus) + modulus) mod modulus in
  List.fold_left (fun acc s -> (acc + s) mod modulus) v shares

let to_signed v =
  let v = ((v mod modulus) + modulus) mod modulus in
  if v > modulus / 2 then v - modulus else v

module Shamir = struct
  type share = { index : int; value : Group.exp }

  let eval_poly coeffs x =
    (* Horner; coeffs.(0) is the secret. *)
    let x = Group.exp_of_int x in
    Array.fold_right (fun c acc -> Group.exp_add c (Group.exp_mul acc x)) coeffs Group.zero_exp

  let split drbg ~threshold ~n secret =
    if threshold < 1 || threshold > n then invalid_arg "Shamir.split: bad threshold";
    let coeffs =
      Array.init threshold (fun i -> if i = 0 then secret else Group.random_exp drbg)
    in
    List.init n (fun i -> { index = i + 1; value = eval_poly coeffs (i + 1) })

  let reconstruct shares =
    match shares with
    | [] -> invalid_arg "Shamir.reconstruct: no shares"
    | _ ->
      List.fold_left
        (fun acc { index = i; value } ->
          let li =
            List.fold_left
              (fun l { index = j; _ } ->
                if j = i then l
                else
                  let num = Group.exp_of_int j in
                  let den = Group.exp_of_int (j - i) in
                  Group.exp_mul l (Group.exp_mul num (Group.exp_inv den)))
              Group.one_exp shares
          in
          Group.exp_add acc (Group.exp_mul value li))
        Group.zero_exp shares
end
