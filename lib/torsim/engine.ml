type t = {
  consensus : Consensus.t;
  truth : Ground_truth.t;
  rng : Prng.Rng.t;
  sinks : (Event.t -> unit) list array;
  ring : Hsdir_ring.t;
  onions : Onion.t;
}

let create ?(seed = 1) consensus =
  {
    consensus;
    truth = Ground_truth.create ();
    rng = Prng.Rng.create seed;
    sinks = Array.make (Consensus.size consensus) [];
    ring = Hsdir_ring.create (Consensus.hsdir_ids consensus);
    onions = Onion.create ();
  }

let consensus t = t.consensus
let truth t = t.truth
let hsdir_ring t = t.ring
let onion_registry t = t.onions

let add_sink t relay_id sink =
  if relay_id < 0 || relay_id >= Array.length t.sinks then
    invalid_arg "Engine.add_sink: bad relay id";
  t.sinks.(relay_id) <- sink :: t.sinks.(relay_id)

let emit t relay_id event = List.iter (fun sink -> sink event) t.sinks.(relay_id)

(* --- client side --- *)

let observe_client t client =
  let tr = t.truth in
  Ground_truth.mark tr.Ground_truth.unique_client_ips client.Client.ip;
  Ground_truth.mark tr.Ground_truth.unique_countries client.Client.country;
  Ground_truth.mark tr.Ground_truth.unique_asns client.Client.asn

let connect_via t client guard =
  let tr = t.truth in
  tr.Ground_truth.connections <- tr.Ground_truth.connections + 1;
  observe_client t client;
  Ground_truth.bump_int tr.Ground_truth.per_country_connections client.Client.country;
  emit t guard
    (Event.Client_connection
       { client_ip = client.Client.ip; country = client.Client.country; asn = client.Client.asn })

let connect t client = connect_via t client (Client.some_guard client t.rng)

let connect_all_guards t client =
  Array.iter (fun guard -> connect_via t client guard) client.Client.guards

let circuit_via t client guard kind =
  let tr = t.truth in
  (match kind with
  | Event.Data_circuit -> tr.Ground_truth.data_circuits <- tr.Ground_truth.data_circuits + 1
  | Event.Directory_circuit ->
    tr.Ground_truth.directory_circuits <- tr.Ground_truth.directory_circuits + 1);
  Ground_truth.bump_int tr.Ground_truth.per_country_circuits client.Client.country;
  emit t guard
    (Event.Client_circuit
       { client_ip = client.Client.ip; country = client.Client.country;
         asn = client.Client.asn; kind })

let data_circuit t client = circuit_via t client (Client.primary_guard client) Event.Data_circuit

let directory_circuit t client =
  let guard = Client.some_guard client t.rng in
  circuit_via t client guard Event.Directory_circuit;
  emit t guard (Event.Directory_request { client_ip = client.Client.ip })

let entry_bytes t client bytes =
  let tr = t.truth in
  tr.Ground_truth.entry_bytes <- tr.Ground_truth.entry_bytes +. bytes;
  Ground_truth.bump_float tr.Ground_truth.per_country_bytes client.Client.country bytes;
  emit t (Client.primary_guard client)
    (Event.Entry_bytes
       { client_ip = client.Client.ip; country = client.Client.country;
         asn = client.Client.asn; bytes })

(* --- exit side --- *)

let record_stream t ~kind ~dest ~port =
  let tr = t.truth in
  tr.Ground_truth.streams_total <- tr.Ground_truth.streams_total + 1;
  match kind with
  | Event.Subsequent -> ()
  | Event.Initial ->
    tr.Ground_truth.streams_initial <- tr.Ground_truth.streams_initial + 1;
    (match dest with
    | Event.Hostname h ->
      tr.Ground_truth.initial_hostname <- tr.Ground_truth.initial_hostname + 1;
      if Event.is_web_port port then begin
        tr.Ground_truth.hostname_web <- tr.Ground_truth.hostname_web + 1;
        Ground_truth.mark tr.Ground_truth.unique_domains h
      end
      else tr.Ground_truth.hostname_other_port <- tr.Ground_truth.hostname_other_port + 1
    | Event.Ipv4_literal -> tr.Ground_truth.initial_ipv4 <- tr.Ground_truth.initial_ipv4 + 1
    | Event.Ipv6_literal -> tr.Ground_truth.initial_ipv6 <- tr.Ground_truth.initial_ipv6 + 1)

let exit_visit t client ~dest ~port ~subsequent_streams ?subsequent_dest ~bytes () =
  if subsequent_streams < 0 then invalid_arg "Engine.exit_visit: negative stream count";
  data_circuit t client;
  let exit = Consensus.sample_exit t.consensus t.rng in
  record_stream t ~kind:Event.Initial ~dest ~port;
  emit t exit (Event.Exit_stream { kind = Event.Initial; dest; port });
  for i = 1 to subsequent_streams do
    let dest, port =
      match subsequent_dest with None -> (dest, port) | Some f -> f i
    in
    record_stream t ~kind:Event.Subsequent ~dest ~port;
    emit t exit (Event.Exit_stream { kind = Event.Subsequent; dest; port })
  done;
  t.truth.Ground_truth.exit_bytes <- t.truth.Ground_truth.exit_bytes +. bytes;
  emit t exit (Event.Exit_bytes { bytes });
  entry_bytes t client bytes

(* --- onion services --- *)

let publish_descriptor t ~address ~first_publish =
  let tr = t.truth in
  tr.Ground_truth.descriptor_publishes <- tr.Ground_truth.descriptor_publishes + 1;
  Ground_truth.mark tr.Ground_truth.unique_published_onions address;
  (match Onion.find t.onions address with
  | Some s -> s.Onion.published <- true
  | None -> ());
  List.iter
    (fun relay_id -> emit t relay_id (Event.Descriptor_published { address; first_publish }))
    (Hsdir_ring.responsible t.ring address)

let fetch_descriptor t ~address =
  let tr = t.truth in
  tr.Ground_truth.descriptor_fetches <- tr.Ground_truth.descriptor_fetches + 1;
  let result =
    match Onion.find t.onions address with
    | Some s when s.Onion.published ->
      tr.Ground_truth.descriptor_fetch_ok <- tr.Ground_truth.descriptor_fetch_ok + 1;
      Ground_truth.mark tr.Ground_truth.unique_fetched_onions address;
      Event.Fetch_ok { public = s.Onion.public }
    | Some _ | None ->
      tr.Ground_truth.descriptor_fetch_failed <- tr.Ground_truth.descriptor_fetch_failed + 1;
      Event.Fetch_missing
  in
  (* The client asks one of the responsible HSDirs, chosen uniformly. *)
  let responsible = Hsdir_ring.responsible t.ring address in
  let n = List.length responsible in
  let target = List.nth responsible (Prng.Rng.below t.rng n) in
  emit t target (Event.Descriptor_fetch { address; result })

let fetch_malformed t =
  let tr = t.truth in
  tr.Ground_truth.descriptor_fetches <- tr.Ground_truth.descriptor_fetches + 1;
  tr.Ground_truth.descriptor_fetch_failed <- tr.Ground_truth.descriptor_fetch_failed + 1;
  let hsdirs = Consensus.hsdir_ids t.consensus in
  let target = hsdirs.(Prng.Rng.below t.rng (Array.length hsdirs)) in
  emit t target (Event.Descriptor_fetch { address = ""; result = Event.Fetch_malformed })

(* --- rendezvous --- *)

let rendezvous t ~outcome =
  let tr = t.truth in
  tr.Ground_truth.rend_circuits <- tr.Ground_truth.rend_circuits + 1;
  (match outcome with
  | Event.Rend_success { cells } ->
    tr.Ground_truth.rend_success <- tr.Ground_truth.rend_success + 1;
    tr.Ground_truth.rend_cells <- tr.Ground_truth.rend_cells + cells
  | Event.Rend_closed -> tr.Ground_truth.rend_closed <- tr.Ground_truth.rend_closed + 1
  | Event.Rend_expired -> tr.Ground_truth.rend_expired <- tr.Ground_truth.rend_expired + 1);
  let rp = Consensus.sample_rendezvous t.consensus t.rng in
  emit t rp (Event.Rendezvous_circuit { outcome })
