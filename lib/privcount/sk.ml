(* A PrivCount share keeper: holds the blinding shares it exchanged
   with each DC, per counter. If at least one SK is honest (withholds
   its sums until the round legitimately closes), the tally server
   learns nothing but the final noisy aggregate.

   Shares are kept per DC so that when a relay crashes mid-round the
   SKs can exclude exactly that DC's shares and the rest of the round
   still tallies — PrivCount's dropout recovery. The per-DC store is a
   flat array indexed by interned counter id; absorption is one array
   write, no hashing. *)

type t = {
  id : int;
  intern : Counter.Intern.t;
  shares : int array array;  (* shares.(dc).(counter id) = share sum mod M *)
}

let modulus = Crypto.Secret_sharing.modulus

let create ~id ~intern ~num_dcs =
  if num_dcs < 1 then invalid_arg "Sk.create: need at least one DC";
  { id; intern; shares = Array.init num_dcs (fun _ -> Array.make (Counter.Intern.size intern) 0) }

let absorb t ~dc ~counter share =
  let row = t.shares.(dc) in
  row.(counter) <- (row.(counter) + share) mod modulus

(* Per-counter sums over the DCs that completed the round. Ascending
   counter id is counter name order, so a report is bit-identical
   across SK replicas. *)
let report ?(exclude_dcs = []) t =
  let num_dcs = Array.length t.shares in
  let n = Counter.Intern.size t.intern in
  let sums = Array.make n 0 in
  for dc = 0 to num_dcs - 1 do
    if not (List.mem dc exclude_dcs) then begin
      let row = t.shares.(dc) in
      for c = 0 to n - 1 do
        sums.(c) <- (sums.(c) + row.(c)) mod modulus
      done
    end
  done;
  Array.to_list (Array.mapi (fun c s -> (Counter.Intern.name t.intern c, s)) sums)
