module Codec = Bus.Codec

type msg =
  | Blind_shares of { sk : int; counters : int array }
  | Report_request
  | Dc_report of (string * int) list
  | Sk_report_request of { exclude_dcs : int list }
  | Sk_report of (string * int) list

let kind = function
  | Blind_shares _ -> "pc.blind"
  | Report_request -> "pc.report_req"
  | Dc_report _ -> "pc.dc_report"
  | Sk_report_request _ -> "pc.sk_report_req"
  | Sk_report _ -> "pc.sk_report"

let write_ints w a =
  Codec.W.varint w (Array.length a);
  Array.iter (Codec.W.varint w) a

let read_ints r =
  let n = Codec.R.count r in
  if n > 1 lsl 24 then Codec.R.fail "vector too long";
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Codec.R.varint r
  done;
  a

let write_report w entries =
  Codec.W.varint w (List.length entries);
  List.iter
    (fun (name, v) ->
      Codec.W.bytes w name;
      Codec.W.varint w v)
    entries

let read_report r =
  let n = Codec.R.varint r in
  if n > 1 lsl 20 then Codec.R.fail "report too long";
  let entries = ref [] in
  for _ = 1 to n do
    let name = Codec.R.bytes r in
    let v = Codec.R.varint r in
    entries := (name, v) :: !entries
  done;
  List.rev !entries

let encode m =
  let w = Codec.W.create () in
  (match m with
  | Blind_shares { sk; counters } ->
      Codec.W.varint w sk;
      write_ints w counters
  | Report_request -> ()
  | Dc_report entries | Sk_report entries -> write_report w entries
  | Sk_report_request { exclude_dcs } ->
      write_ints w (Array.of_list exclude_dcs));
  Codec.W.contents w

let decode ~kind body =
  match kind with
  | "pc.blind" ->
      Codec.decode body (fun r ->
          let sk = Codec.R.varint r in
          Blind_shares { sk; counters = read_ints r })
  | "pc.report_req" -> Codec.decode body (fun _ -> Report_request)
  | "pc.dc_report" -> Codec.decode body (fun r -> Dc_report (read_report r))
  | "pc.sk_report_req" ->
      Codec.decode body (fun r ->
          Sk_report_request { exclude_dcs = Array.to_list (read_ints r) })
  | "pc.sk_report" -> Codec.decode body (fun r -> Sk_report (read_report r))
  | k -> Error (Codec.Invalid (Printf.sprintf "unknown privcount kind %S" k))

let post sched ~epoch ~src ~dst m =
  Bus.Sched.post sched ~epoch ~src ~dst ~kind:(kind m) ~body:(encode m)

let encode_results results =
  let w = Codec.W.create () in
  Codec.W.varint w (List.length results);
  List.iter
    (fun r ->
      Codec.W.bytes w r.Ts.name;
      Codec.W.f64 w r.Ts.value;
      Codec.W.f64 w r.Ts.sigma;
      Codec.W.f64 w r.Ts.ci.Stats.Ci.lo;
      Codec.W.f64 w r.Ts.ci.Stats.Ci.hi)
    results;
  Codec.W.contents w

let decode_results s =
  Codec.decode s (fun r ->
      let n = Codec.R.varint r in
      if n > 1 lsl 20 then Codec.R.fail "too many results";
      let out = ref [] in
      for _ = 1 to n do
        let name = Codec.R.bytes r in
        let value = Codec.R.f64 r in
        let sigma = Codec.R.f64 r in
        let lo = Codec.R.f64 r in
        let hi = Codec.R.f64 r in
        if lo > hi then Codec.R.fail "interval lo > hi";
        out := { Ts.name; value; sigma; ci = Stats.Ci.make lo hi } :: !out
      done;
      List.rev !out)
