let modulus = 1 lsl 61

let blind v shares =
  let v = ((v mod modulus) + modulus) mod modulus in
  List.fold_left (fun acc s -> (acc + s) mod modulus) v shares

let to_signed v =
  let v = ((v mod modulus) + modulus) mod modulus in
  if v > modulus / 2 then v - modulus else v
