(* Binary event-trace record/replay.

   One segment per netday shard: a Bus.Codec header (provenance,
   recorded tallies, interned string tables, SHA-256 payload checksum)
   followed by varint-delta event records. The writer interns every
   country and hostname/onion address on first sight; records then
   carry only small integers, with client ip / asn / port / host id
   encoded as zigzag deltas against the previous record's values, so
   the common event costs 2-5 bytes. Both directions go through
   Bus.Codec, the codec of the bus wire. Replay decodes the payload in
   place into one reused mutable view; the hot loop allocates nothing,
   which is what lets ingestion benchmarks run at 100M+ events
   (DESIGN.md §3f, and the comment above [iter] for the two compiler
   rules behind its shape). *)

type error = Bus.Codec.error

let error_to_string = Bus.Codec.error_to_string

exception Error of error

type mismatch = { shard : int; what : string; expected : int; got : int }

exception Mismatch of mismatch

let mismatch_to_string m =
  Printf.sprintf "shard %s: %s mismatch: recorded %d, replayed %d"
    (if m.shard < 0 then "merge" else string_of_int m.shard)
    m.what m.expected m.got

type meta = {
  seed : int;
  shard : int;
  shards : int;
  config : (string * int) list;
}

let meta_equal_recording a b =
  a.seed = b.seed && a.shards = b.shards && a.config = b.config

let magic = "TMT"
let version = 1

(* --- record tags ---

   Stream destinations and fetch results are folded into the tag so a
   record is a tag byte plus only the fields that vary. Entry/exit byte
   volumes are floats in torsim; the integral common case is written as
   a varint, the general case as raw IEEE bits (exact round-trip). *)

let t_connection = 0
let t_circuit_data = 1
let t_circuit_dir = 2
let t_dir_request = 3
let t_entry_bytes_i = 4
let t_entry_bytes_f = 5
let t_exit_bytes_i = 6
let t_exit_bytes_f = 7
let t_stream_init_host = 8
let t_stream_init_v4 = 9
let t_stream_init_v6 = 10
let t_stream_sub_host = 11
let t_stream_sub_v4 = 12
let t_stream_sub_v6 = 13
let t_desc_published = 14
let t_desc_fetch_ok = 15
let t_desc_fetch_missing = 16
let t_desc_fetch_malformed = 17
let t_rend_success = 18
let t_rend_closed = 19
let t_rend_expired = 20

(* a float that round-trips through varint: non-negative, integral,
   comfortably inside the 62-bit varint budget *)
let integral_float v =
  v >= 0.0 && v < 0x1p60 && Float.is_integer v

(* --- interning tables (insertion order IS id order) --- *)

module Intern = struct
  type t = {
    ids : (string, int) Hashtbl.t;
    mutable items : string list;  (* reversed *)
    mutable count : int;
  }

  let create () = { ids = Hashtbl.create 64; items = []; count = 0 }

  let id t s =
    match Hashtbl.find_opt t.ids s with
    | Some i -> i
    | None ->
      let i = t.count in
      Hashtbl.add t.ids s i;
      t.items <- s :: t.items;
      t.count <- i + 1;
      i

  let to_array t = Array.of_list (List.rev t.items)
end

(* --- header/segment encoding (Bus.Codec) --- *)

let encode_segment ~meta ~tallies ~countries ~hosts ~events ~payload =
  let w = Bus.Codec.W.create () in
  Bus.Codec.W.magic w magic;
  Bus.Codec.W.u8 w version;
  Bus.Codec.W.zint w meta.seed;
  Bus.Codec.W.varint w meta.shard;
  Bus.Codec.W.varint w meta.shards;
  Bus.Codec.W.varint w (List.length meta.config);
  List.iter
    (fun (k, v) ->
      Bus.Codec.W.bytes w k;
      Bus.Codec.W.zint w v)
    meta.config;
  Bus.Codec.W.varint w (List.length tallies);
  List.iter
    (fun (k, v) ->
      Bus.Codec.W.bytes w k;
      Bus.Codec.W.zint w v)
    tallies;
  Bus.Codec.W.varint w (Array.length countries);
  Array.iter (fun s -> Bus.Codec.W.bytes w s) countries;
  Bus.Codec.W.varint w (Array.length hosts);
  Array.iter (fun s -> Bus.Codec.W.bytes w s) hosts;
  Bus.Codec.W.varint w events;
  Bus.Codec.W.bytes w (Crypto.Sha256.digest payload);
  Bus.Codec.W.bytes w payload;
  Bus.Codec.W.contents w

module Segment = struct
  type t = {
    meta : meta;
    tallies : (string * int) list;
    countries : string array;
    hosts : string array;
    events : int;
    payload : string;
  }

  let decode src =
    Bus.Codec.decode src (fun r ->
        Bus.Codec.R.magic r magic;
        let v = Bus.Codec.R.u8 r in
        if v <> version then Bus.Codec.R.fail_version v;
        let seed = Bus.Codec.R.zint r in
        let shard = Bus.Codec.R.varint r in
        let shards = Bus.Codec.R.varint r in
        if shards < 1 then Bus.Codec.R.fail "shard count must be positive";
        if shard >= shards then Bus.Codec.R.fail "shard index out of range";
        let pairs () =
          let n = Bus.Codec.R.count ~width:2 r in
          List.init n (fun _ ->
              let k = Bus.Codec.R.bytes r in
              let v = Bus.Codec.R.zint r in
              (k, v))
        in
        let config = pairs () in
        let tallies = pairs () in
        let table () =
          let n = Bus.Codec.R.count r in
          Array.init n (fun _ -> Bus.Codec.R.bytes r)
        in
        let countries = table () in
        let hosts = table () in
        let events = Bus.Codec.R.varint r in
        let checksum = Bus.Codec.R.bytes r in
        if String.length checksum <> 32 then Bus.Codec.R.fail "checksum must be 32 bytes";
        let payload = Bus.Codec.R.bytes r in
        if not (String.equal (Crypto.Sha256.digest payload) checksum) then
          Bus.Codec.R.fail "payload checksum mismatch";
        { meta = { seed; shard; shards; config }; tallies; countries; hosts; events; payload })

  let encode t =
    encode_segment ~meta:t.meta ~tallies:t.tallies ~countries:t.countries ~hosts:t.hosts
      ~events:t.events ~payload:t.payload

  let read_file path =
    match In_channel.with_open_bin path In_channel.input_all with
    | src -> decode src
    | exception Sys_error msg -> Result.Error (Bus.Codec.Invalid msg)

  let write_file path bytes = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)
end

(* --- writer --- *)

module Writer = struct
  module W = Bus.Codec.W

  type t = {
    meta : meta;
    w : W.t;
    countries : Intern.t;
    hosts : Intern.t;
    mutable count : int;
    mutable prev_ip : int;
    mutable prev_asn : int;
    mutable prev_port : int;
    mutable prev_host : int;
    mutable finished : bool;
  }

  let create meta =
    {
      meta;
      w = W.create ();
      countries = Intern.create ();
      hosts = Intern.create ();
      count = 0;
      prev_ip = 0;
      prev_asn = 0;
      prev_port = 0;
      prev_host = 0;
      finished = false;
    }

  let d_ip t ip =
    W.zint t.w (ip - t.prev_ip);
    t.prev_ip <- ip

  let d_asn t asn =
    W.zint t.w (asn - t.prev_asn);
    t.prev_asn <- asn

  let d_port t port =
    W.zint t.w (port - t.prev_port);
    t.prev_port <- port

  let d_host t h =
    let id = Intern.id t.hosts h in
    W.zint t.w (id - t.prev_host);
    t.prev_host <- id

  let client t ~client_ip ~country ~asn =
    d_ip t client_ip;
    W.varint t.w (Intern.id t.countries country);
    d_asn t asn

  let volume t bytes =
    if integral_float bytes then W.varint t.w (int_of_float bytes) else W.f64 t.w bytes

  let event t ev =
    if t.finished then invalid_arg "Trace.Writer.event: writer already finished";
    t.count <- t.count + 1;
    match (ev : Torsim.Event.t) with
    | Client_connection { client_ip; country; asn } ->
      W.u8 t.w t_connection;
      client t ~client_ip ~country ~asn
    | Client_circuit { client_ip; country; asn; kind = Data_circuit } ->
      W.u8 t.w t_circuit_data;
      client t ~client_ip ~country ~asn
    | Client_circuit { client_ip; country; asn; kind = Directory_circuit } ->
      W.u8 t.w t_circuit_dir;
      client t ~client_ip ~country ~asn
    | Directory_request { client_ip } ->
      W.u8 t.w t_dir_request;
      d_ip t client_ip
    | Entry_bytes { client_ip; country; asn; bytes } ->
      W.u8 t.w (if integral_float bytes then t_entry_bytes_i else t_entry_bytes_f);
      client t ~client_ip ~country ~asn;
      volume t bytes
    | Exit_bytes { bytes } ->
      W.u8 t.w (if integral_float bytes then t_exit_bytes_i else t_exit_bytes_f);
      volume t bytes
    | Exit_stream { kind; dest; port } -> (
      match dest with
      | Hostname h ->
        W.u8 t.w (match kind with Initial -> t_stream_init_host | Subsequent -> t_stream_sub_host);
        d_host t h;
        d_port t port
      | Ipv4_literal ->
        W.u8 t.w (match kind with Initial -> t_stream_init_v4 | Subsequent -> t_stream_sub_v4);
        d_port t port
      | Ipv6_literal ->
        W.u8 t.w (match kind with Initial -> t_stream_init_v6 | Subsequent -> t_stream_sub_v6);
        d_port t port)
    | Descriptor_published { address; first_publish } ->
      W.u8 t.w t_desc_published;
      d_host t address;
      W.u8 t.w (if first_publish then 1 else 0)
    | Descriptor_fetch { address; result } -> (
      match result with
      | Fetch_ok { public } ->
        W.u8 t.w t_desc_fetch_ok;
        d_host t address;
        W.u8 t.w (if public then 1 else 0)
      | Fetch_missing ->
        W.u8 t.w t_desc_fetch_missing;
        d_host t address
      | Fetch_malformed ->
        W.u8 t.w t_desc_fetch_malformed;
        d_host t address)
    | Rendezvous_circuit { outcome } -> (
      match outcome with
      | Rend_success { cells } ->
        W.u8 t.w t_rend_success;
        W.varint t.w cells
      | Rend_closed -> W.u8 t.w t_rend_closed
      | Rend_expired -> W.u8 t.w t_rend_expired)

  let finish t ~tallies =
    if t.finished then invalid_arg "Trace.Writer.finish: writer already finished";
    t.finished <- true;
    encode_segment ~meta:t.meta ~tallies
      ~countries:(Intern.to_array t.countries)
      ~hosts:(Intern.to_array t.hosts)
      ~events:t.count
      ~payload:(W.contents t.w)
end

(* --- replay --- *)

module View = struct
  type kind =
    | Connection
    | Circuit_data
    | Circuit_directory
    | Directory_request
    | Entry_bytes
    | Exit_bytes
    | Stream_initial
    | Stream_subsequent
    | Descriptor_published
    | Descriptor_fetch
    | Rendezvous

  type t = {
    mutable kind : kind;
    mutable ip : int;
    mutable country : int;
    mutable asn : int;
    vol : Bus.Codec.R.f64_cell;
    mutable host : int;
    mutable port : int;
    mutable flag : bool;
    mutable fetch : int;
    mutable cells : int;
  }

  let make () =
    {
      kind = Connection;
      ip = 0;
      country = 0;
      asn = 0;
      vol = { value = 0.0 };
      host = 0;
      port = 0;
      flag = false;
      fetch = 0;
      cells = 0;
    }

  (* Materialize the boxed torsim event, for [iter_events]; the hot path
     reads the view directly. *)
  let to_event ~countries ~hosts v =
    let dest () : Torsim.Event.dest =
      if v.host >= 0 then Hostname hosts.(v.host)
      else if v.host = -1 then Ipv4_literal
      else Ipv6_literal
    in
    match v.kind with
    | Connection ->
      Torsim.Event.Client_connection
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn }
    | Circuit_data ->
      Torsim.Event.Client_circuit
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn; kind = Data_circuit }
    | Circuit_directory ->
      Torsim.Event.Client_circuit
        {
          client_ip = v.ip;
          country = countries.(v.country);
          asn = v.asn;
          kind = Directory_circuit;
        }
    | Directory_request -> Torsim.Event.Directory_request { client_ip = v.ip }
    | Entry_bytes ->
      Torsim.Event.Entry_bytes
        { client_ip = v.ip; country = countries.(v.country); asn = v.asn; bytes = v.vol.value }
    | Exit_bytes -> Torsim.Event.Exit_bytes { bytes = v.vol.value }
    | Stream_initial -> Torsim.Event.Exit_stream { kind = Initial; dest = dest (); port = v.port }
    | Stream_subsequent ->
      Torsim.Event.Exit_stream { kind = Subsequent; dest = dest (); port = v.port }
    | Descriptor_published ->
      Torsim.Event.Descriptor_published { address = hosts.(v.host); first_publish = v.flag }
    | Descriptor_fetch ->
      Torsim.Event.Descriptor_fetch
        {
          address = hosts.(v.host);
          result =
            (if v.fetch = 0 then Fetch_ok { public = v.flag }
             else if v.fetch = 1 then Fetch_missing
             else Fetch_malformed);
        }
    | Rendezvous ->
      Torsim.Event.Rendezvous_circuit
        {
          outcome =
            (if v.cells >= 0 then Rend_success { cells = v.cells }
             else if v.cells = -1 then Rend_closed
             else Rend_expired);
        }
end

(* The payload decoder runs inside [Bus.Codec.decode] on the shared
   reader, so malformed bytes surface as the codec's own typed errors.
   The loop allocates nothing per record; its shape follows two rules
   of this compiler (no flambda). A local function that captures
   variables is a closure allocated where it is defined, and a local
   [let rec] is allocated on every call, so the field helpers below
   are top-level functions taking the reader and the view, and the
   varint loop is the codec's top-level one. A float stored into a
   record that also has non-float fields is boxed, so the byte volume
   lives in the float-only [View.vol], which [R.f64_into] fills
   without boxing even where it is not inlined. *)

module R = Bus.Codec.R

let d_ip r (v : View.t) = v.ip <- v.ip + R.zint r
let d_asn r (v : View.t) = v.asn <- v.asn + R.zint r
let d_port r (v : View.t) = v.port <- v.port + R.zint r

let client r (v : View.t) ~ncountries =
  d_ip r v;
  let c = R.varint r in
  if c < 0 || c >= ncountries then R.fail "country id out of range";
  v.country <- c;
  d_asn r v

let volume r (v : View.t) ~raw =
  if raw then R.f64_into r v.vol else v.vol.value <- float_of_int (R.varint r)

(* Hosts are deltas against [base], the last host id read. Literal
   destinations set [v.host] to a negative sentinel, so the base is
   carried by the caller rather than read back from the view. *)
let d_host r (v : View.t) ~nhosts base =
  let h = base + R.zint r in
  if h < 0 || h >= nhosts then R.fail "host id out of range";
  v.host <- h;
  h

let iter (seg : Segment.t) f =
  let ncountries = Array.length seg.countries in
  let nhosts = Array.length seg.hosts in
  let v = View.make () in
  Bus.Codec.decode seg.payload @@ fun r ->
  let count = ref 0 in
  let host_base = ref 0 in
  while R.remaining r > 0 do
    let tag = R.u8 r in
    (if tag = t_connection then begin
       v.kind <- View.Connection;
       client r v ~ncountries
     end
     else if tag = t_circuit_data then begin
       v.kind <- View.Circuit_data;
       client r v ~ncountries
     end
     else if tag = t_circuit_dir then begin
       v.kind <- View.Circuit_directory;
       client r v ~ncountries
     end
     else if tag = t_dir_request then begin
       v.kind <- View.Directory_request;
       d_ip r v
     end
     else if tag = t_entry_bytes_i || tag = t_entry_bytes_f then begin
       v.kind <- View.Entry_bytes;
       client r v ~ncountries;
       volume r v ~raw:(tag = t_entry_bytes_f)
     end
     else if tag = t_exit_bytes_i || tag = t_exit_bytes_f then begin
       v.kind <- View.Exit_bytes;
       volume r v ~raw:(tag = t_exit_bytes_f)
     end
     else if tag = t_stream_init_host then begin
       v.kind <- View.Stream_initial;
       host_base := d_host r v ~nhosts !host_base;
       d_port r v
     end
     else if tag = t_stream_init_v4 then begin
       v.kind <- View.Stream_initial;
       v.host <- -1;
       d_port r v
     end
     else if tag = t_stream_init_v6 then begin
       v.kind <- View.Stream_initial;
       v.host <- -2;
       d_port r v
     end
     else if tag = t_stream_sub_host then begin
       v.kind <- View.Stream_subsequent;
       host_base := d_host r v ~nhosts !host_base;
       d_port r v
     end
     else if tag = t_stream_sub_v4 then begin
       v.kind <- View.Stream_subsequent;
       v.host <- -1;
       d_port r v
     end
     else if tag = t_stream_sub_v6 then begin
       v.kind <- View.Stream_subsequent;
       v.host <- -2;
       d_port r v
     end
     else if tag = t_desc_published then begin
       v.kind <- View.Descriptor_published;
       host_base := d_host r v ~nhosts !host_base;
       v.flag <- R.u8 r <> 0
     end
     else if tag = t_desc_fetch_ok then begin
       v.kind <- View.Descriptor_fetch;
       v.fetch <- 0;
       host_base := d_host r v ~nhosts !host_base;
       v.flag <- R.u8 r <> 0
     end
     else if tag = t_desc_fetch_missing then begin
       v.kind <- View.Descriptor_fetch;
       v.fetch <- 1;
       host_base := d_host r v ~nhosts !host_base
     end
     else if tag = t_desc_fetch_malformed then begin
       v.kind <- View.Descriptor_fetch;
       v.fetch <- 2;
       host_base := d_host r v ~nhosts !host_base
     end
     else if tag = t_rend_success then begin
       v.kind <- View.Rendezvous;
       v.cells <- R.varint r
     end
     else if tag = t_rend_closed then begin
       v.kind <- View.Rendezvous;
       v.cells <- -1
     end
     else if tag = t_rend_expired then begin
       v.kind <- View.Rendezvous;
       v.cells <- -2
     end
     else R.fail (Printf.sprintf "unknown record tag %d" tag));
    incr count;
    f v
  done;
  if !count <> seg.events then
    R.fail (Printf.sprintf "header promises %d events, payload holds %d" seg.events !count);
  !count

let iter_events (seg : Segment.t) f =
  iter seg (fun v -> f (View.to_event ~countries:seg.countries ~hosts:seg.hosts v))
