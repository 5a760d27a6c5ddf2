type entry = { party : Party.t; state : string }

type t = {
  seed : int;
  scenario : string;
  epoch : int;
  phase : string;
  entries : entry list;
}

let magic = "TMC"
let version = 1

let encode t =
  let w = Codec.W.create () in
  Codec.W.magic w magic;
  Codec.W.u8 w version;
  Codec.W.zint w t.seed;
  Codec.W.bytes w t.scenario;
  Codec.W.varint w t.epoch;
  Codec.W.bytes w t.phase;
  Codec.W.varint w (List.length t.entries);
  List.iter
    (fun e ->
      Party.write w e.party;
      Codec.W.bytes w e.state)
    t.entries;
  Codec.W.contents w

let decode s =
  Codec.decode s (fun r ->
      Codec.R.magic r magic;
      let v = Codec.R.u8 r in
      if v <> version then Codec.R.fail_version v;
      let seed = Codec.R.zint r in
      let scenario = Codec.R.bytes r in
      let epoch = Codec.R.varint r in
      let phase = Codec.R.bytes r in
      let n = Codec.R.varint r in
      (* explicit loop: the reader is stateful, so entry order must
         follow the wire order *)
      let entries = ref [] in
      for _ = 1 to n do
        let party = Party.read r in
        let state = Codec.R.bytes r in
        entries := { party; state } :: !entries
      done;
      { seed; scenario; epoch; phase; entries = List.rev !entries })

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error msg -> Error (Codec.Invalid msg)

let find t p =
  List.find_map
    (fun e -> if Party.equal e.party p then Some e.state else None)
    t.entries
