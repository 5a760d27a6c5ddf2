type t = {
  ring : (string * Relay.id) array;  (* sorted by hash position *)
  replicas : int;
  spread : int;
}

let relay_position id = Crypto.Sha256.hex (Printf.sprintf "hsdir-ring|%d" id)

let create ?(replicas = 2) ?(spread = 3) hsdirs =
  if Array.length hsdirs = 0 then invalid_arg "Hsdir_ring.create: no HSDirs";
  if replicas < 1 || spread < 1 then invalid_arg "Hsdir_ring.create: bad replication";
  let ring = Array.map (fun id -> (relay_position id, id)) hsdirs in
  Array.sort compare ring;
  { ring; replicas; spread }

let size t = Array.length t.ring

(* First ring index whose position is >= the target hash (wrapping). *)
let successor t target =
  let n = Array.length t.ring in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst t.ring.(mid) < target then bsearch (mid + 1) hi else bsearch lo mid
  in
  let i = bsearch 0 n in
  if i = n then 0 else i

let responsible t descriptor_id =
  let n = Array.length t.ring in
  let ids = ref [] in
  for r = 0 to t.replicas - 1 do
    let target = Crypto.Sha256.hex (Printf.sprintf "desc|%s|replica|%d" descriptor_id r) in
    let start = successor t target in
    for s = 0 to min t.spread n - 1 do
      let _, id = t.ring.((start + s) mod n) in
      if not (List.mem id !ids) then ids := id :: !ids
    done
  done;
  List.rev !ids

(* Consistent hashing loads relays proportionally to their predecessor
   gaps, so a fixed observer set's true share of descriptor slots can
   differ noticeably from |observers|/ring. These estimators average
   over deterministic sample addresses, exactly as an operator could do
   from the public ring structure. *)
let sample_address i = Printf.sprintf "visibility-sample-%d.onion" i

let fetch_visibility ?(samples = 20_000) t observer_ids =
  let obs = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace obs id ()) observer_ids;
  let total = ref 0.0 in
  for i = 0 to samples - 1 do
    let resp = responsible t (sample_address i) in
    let hit = List.length (List.filter (Hashtbl.mem obs) resp) in
    total := !total +. (float_of_int hit /. float_of_int (List.length resp))
  done;
  !total /. float_of_int samples

let publish_visibility ?(samples = 20_000) t observer_ids =
  let obs = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace obs id ()) observer_ids;
  let hits = ref 0 in
  for i = 0 to samples - 1 do
    if List.exists (Hashtbl.mem obs) (responsible t (sample_address i)) then incr hits
  done;
  float_of_int !hits /. float_of_int samples
