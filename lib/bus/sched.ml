type stats = { delivered : int; dropped : int; bytes : int }

(* Pending message: [due] is virtual time, [seq] the global post order
   (tie-break), [wire] the already-encoded envelope. *)
type pending = { due : int; seq : int; wire : string }

type entry = {
  party : Party.t;
  mutable handlers : (Envelope.t -> bool) list;  (* registration order *)
  mutable delay : int;
  mutable down : bool;
}

type t = {
  jitter : Prng.Rng.t;
  mutable heap : pending array;  (* binary min-heap on (due, seq) *)
  mutable size : int;
  mutable next_seq : int;
  mutable clock : int;
  (* assoc list, not Hashtbl: lib/bus is in torlint's determinism scope
     and the registry is tiny (tens of parties) *)
  mutable parties : entry list;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  order : Crypto.Sha256.ctx;  (* every delivered wire, then '\n' *)
}

let create ~seed =
  {
    jitter = Prng.Rng.create (seed lxor 0x6275735f);
    heap = Array.make 64 { due = 0; seq = 0; wire = "" };
    size = 0;
    next_seq = 0;
    clock = 0;
    parties = [];
    delivered = 0;
    dropped = 0;
    bytes = 0;
    order = Crypto.Sha256.init ();
  }

let find t p = List.find_opt (fun e -> Party.equal e.party p) t.parties

let entry t p =
  match find t p with
  | Some e -> e
  | None ->
      let e = { party = p; handlers = []; delay = 1; down = false } in
      t.parties <- t.parties @ [ e ];
      e

let register t p h =
  let e = entry t p in
  e.handlers <- e.handlers @ [ h ]

let set_delay t p d =
  if d < 1 then invalid_arg "Sched.set_delay: delay must be >= 1";
  (entry t p).delay <- d

let crash t p = (entry t p).down <- true
let crashed t p = match find t p with Some e -> e.down | None -> false

(* min-heap keyed (due, seq); seq values are unique so the order is a
   total one *)
let less a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

let push t m =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) m in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.heap.(t.size) <- m;
  t.size <- t.size + 1;
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.heap.(!i) t.heap.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.heap.(parent) in
    t.heap.(parent) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := parent
  done

let pop t =
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && less t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let post t ~epoch ~src ~dst ~kind ~body =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let env = { Envelope.epoch; seq; src; dst; kind; body } in
  let link =
    let d p = match find t p with Some e -> e.delay | None -> 1 in
    max (d src) (d dst)
  in
  (* jitter in [1,16] models network latency spread; scaling by the
     link weight keeps slow-party traffic behind everything else *)
  let due = t.clock + ((1 + Prng.Rng.below t.jitter 16) * link) in
  push t { due; seq; wire = Envelope.encode env }

let deliver t m =
  t.clock <- max t.clock m.due;
  match Envelope.decode m.wire with
  | Error e ->
      invalid_arg
        (Printf.sprintf "Sched.run: undecodable envelope: %s"
           (Codec.error_to_string e))
  | Ok env ->
      if crashed t env.Envelope.dst then t.dropped <- t.dropped + 1
      else begin
        let handlers =
          match find t env.Envelope.dst with
          | Some e -> e.handlers
          | None -> []
        in
        let claimed = List.exists (fun h -> h env) handlers in
        if not claimed then
          invalid_arg
            (Printf.sprintf "Sched.run: unhandled message %s"
               (Envelope.to_string env));
        t.delivered <- t.delivered + 1;
        t.bytes <- t.bytes + String.length m.wire;
        Crypto.Sha256.update t.order m.wire;
        Crypto.Sha256.update t.order "\n"
      end

let run t =
  while t.size > 0 do
    deliver t (pop t)
  done;
  { delivered = t.delivered; dropped = t.dropped; bytes = t.bytes }

let order_digest t =
  Crypto.Sha256.to_hex (Crypto.Sha256.finalize (Crypto.Sha256.copy t.order))
