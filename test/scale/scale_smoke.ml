(* Correctness checks at deployment scale, not timings (perfbench/ is
   the timing harness). `dune runtest` does not run them; CI does, at
   REPRO_JOBS=1 and 4:

     REPRO_JOBS=4 dune exec test/scale/scale_smoke.exe

   psc-1M-run  one 2^20-slot PSC round with proofs on: noise bit
               proofs, 2-round shuffle arguments and verifiable
               decryption. Batched verification and the streamed
               phases must hold up at this size; fails if any proof is
               rejected.
   replay-1M   Netday.replay over a sealed 4-shard synthetic 1M-event
               recording: the full replay path (decode, netday counter
               family, shard pool, in-order merge). Fails on any
               decode error or a lost event.

   Exits 0 when both pass, 1 otherwise. *)

let psc_1m () =
  let proto =
    Psc.Protocol.create
      (Psc.Protocol.config ~table_size:1_048_576 ~num_cps:3 ~noise_flips_per_cp:64
         ~proof_rounds:(Some 2) ~verify:true ())
      ~num_dcs:2 ~seed:13
  in
  for i = 0 to 2_047 do
    Psc.Protocol.insert proto ~dc:(i land 1) (Printf.sprintf "item:%d" i)
  done;
  let r = Psc.Protocol.run proto in
  if r.Psc.Protocol.proofs_ok then Ok ()
  else
    Error
      (Printf.sprintf "proofs rejected (culprit CPs: %s)"
         (String.concat ", " (List.map string_of_int r.Psc.Protocol.culprits)))

(* A fixed event mixture (connections, circuits, bytes, exit streams
   over a 512-hostname pool), sealed into Evtrace segments. *)
let hosts =
  Array.init 512 (fun i ->
      match i land 3 with
      | 0 -> Printf.sprintf "www.s%d.com" i
      | 1 -> Printf.sprintf "s%d.co.uk" i
      | 2 -> Printf.sprintf "cdn%d.t%d.com" (i land 31) (i lsr 5)
      | _ -> Printf.sprintf "host%d.internal" i)

let event i =
  match i mod 8 with
  | 0 -> Torsim.Event.Client_connection { client_ip = i; country = "US"; asn = 7922 }
  | 1 | 2 ->
    Torsim.Event.Client_circuit
      { client_ip = i; country = "DE"; asn = 3320; kind = Torsim.Event.Data_circuit }
  | 3 ->
    let bytes = float_of_int ((i land 1023) * 4096) in
    Torsim.Event.Entry_bytes { client_ip = i; country = "FR"; asn = 3215; bytes }
  | 4 ->
    let dest = Torsim.Event.Hostname hosts.(i land 511) in
    Torsim.Event.Exit_stream { kind = Torsim.Event.Subsequent; dest; port = 443 }
  | _ ->
    Torsim.Event.Exit_stream
      {
        kind = Torsim.Event.Initial;
        dest = Torsim.Event.Hostname hosts.((i * 7) land 511);
        port = (if i land 15 = 0 then 22 else 443);
      }

let replay_1m () =
  let n = 1_000_000 and shards = 4 in
  let seal s =
    let w =
      Evtrace.Writer.create { Evtrace.seed = 17; shard = s; shards; config = [ ("events", n) ] }
    in
    for i = s * n / shards to ((s + 1) * n / shards) - 1 do
      Evtrace.Writer.event w (event i)
    done;
    match Evtrace.Segment.decode (Evtrace.Writer.finish w ~tallies:[]) with
    | Ok seg -> seg
    | Error e -> raise (Evtrace.Error e)
  in
  match Tormeasure.Netday.replay (Array.init shards seal) with
  | r when r.Tormeasure.Netday.replayed_events = n -> Ok ()
  | r -> Error (Printf.sprintf "replayed %d of %d events" r.Tormeasure.Netday.replayed_events n)
  | exception Evtrace.Error e -> Error (Evtrace.error_to_string e)

let () =
  let failed =
    List.filter
      (fun (name, check) ->
        let t0 = Unix.gettimeofday () in
        let outcome = check () in
        let dt = Unix.gettimeofday () -. t0 in
        (match outcome with
        | Ok () -> Printf.printf "scale %s ok in %.1fs (jobs=%d)\n%!" name dt (Parallel.jobs ())
        | Error msg ->
          Printf.printf "scale %s FAILED (jobs=%d): %s\n%!" name (Parallel.jobs ()) msg);
        Result.is_error outcome)
      [ ("psc-1M-run", psc_1m); ("replay-1M", replay_1m) ]
  in
  if failed <> [] then exit 1
