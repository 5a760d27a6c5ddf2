type t = {
  epoch : int;
  seq : int;
  src : Party.t;
  dst : Party.t;
  kind : string;
  body : string;
}

let magic = "TMB"
let version = 1

let encode t =
  let w = Codec.W.create () in
  Codec.W.magic w magic;
  Codec.W.u8 w version;
  Codec.W.varint w t.epoch;
  Codec.W.varint w t.seq;
  Party.write w t.src;
  Party.write w t.dst;
  Codec.W.bytes w t.kind;
  Codec.W.bytes w t.body;
  Codec.W.contents w

let decode s =
  Codec.decode s (fun r ->
      Codec.R.magic r magic;
      let v = Codec.R.u8 r in
      if v <> version then Codec.R.fail_version v;
      let epoch = Codec.R.varint r in
      let seq = Codec.R.varint r in
      let src = Party.read r in
      let dst = Party.read r in
      let kind = Codec.R.bytes r in
      let body = Codec.R.bytes r in
      { epoch; seq; src; dst; kind; body })

let to_string t =
  Printf.sprintf "e%d#%d %s->%s %s (%dB)" t.epoch t.seq
    (Party.to_string t.src) (Party.to_string t.dst) t.kind
    (String.length t.body)
