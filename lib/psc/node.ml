(* Bus-hosted PSC parties: message decoding and dispatch over the
   per-phase functions in Protocol. Per-CP DRBG draw order is the
   byte-identity invariant: create (keygen), key proof, noise, shuffle,
   rerandomize, decrypt — the cascade requests arrive in exactly that
   order, so each CP's stream position matches the in-process pipeline
   step for step. *)

type cfg = { round : Protocol.config; num_dcs : int; seed : int }

(* ------------------------------------------------------------------ *)
(* Computation party *)

let spawn_cp sched ~epoch cfg ~id =
  let cp = Cp.create ~id ~seed:cfg.seed in
  (* set on the joint key's arrival, with its fixed-base table *)
  let joint = ref None in
  let joint_exn () =
    match !joint with
    | Some (j, tab) -> (j, tab)
    | None -> invalid_arg "Node.cp: request before joint key"
  in
  Wire.post sched ~epoch ~src:(Bus.Party.Cp id) ~dst:Bus.Party.Ts
    (Wire.Cp_key { pub = Cp.public_key cp; proof = Cp.key_proof cp });
  Bus.Sched.register sched (Bus.Party.Cp id) (fun env ->
      let reply m =
        Wire.post sched ~epoch:env.Bus.Envelope.epoch ~src:(Bus.Party.Cp id)
          ~dst:Bus.Party.Ts m
      in
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok (Wire.Joint { joint = j }) ->
          joint := Some (j, Crypto.Group.precomp j);
          true
      | Ok (Wire.Noise_request { flips }) ->
          let j, tab = joint_exn () in
          reply (Wire.Noise_slots (Protocol.proven_noise cfg.round ~tab cp ~joint:j ~flips));
          true
      | Ok (Wire.Shuffle_request { vector; rounds }) ->
          let j, tab = joint_exn () in
          let output, proof =
            Protocol.cp_shuffle cfg.round ~tab cp ~joint:j ~rounds:(Some rounds) vector
          in
          reply (Wire.Shuffled { output; proof });
          true
      | Ok (Wire.Rerand_request vector) ->
          reply (Wire.Rerandomized (Cp.rerandomize_bits cp vector));
          true
      | Ok (Wire.Decrypt_request vector) ->
          let share = Cp.decrypt_shares cp ~prove:true vector in
          reply
            (Wire.Decrypt_share
               { shares = share.Cp.shares; proofs = share.Cp.proofs });
          true
      | Ok _ | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Data collector *)

type dc = { dc_id : int; mutable table : Table.t option }

let table_exn t what =
  match t.table with
  | Some table -> table
  | None -> invalid_arg (Printf.sprintf "Node.%s: joint key not yet received" what)

let spawn_dc sched cfg ~id =
  let t = { dc_id = id; table = None } in
  Bus.Sched.register sched (Bus.Party.Dc id) (fun env ->
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok (Wire.Joint { joint }) ->
          t.table <- Some (Protocol.dc_table cfg.round ~seed:cfg.seed ~dc:id joint);
          true
      | Ok Wire.Table_request ->
          Wire.post sched ~epoch:env.Bus.Envelope.epoch ~src:(Bus.Party.Dc id)
            ~dst:Bus.Party.Ts
            (Wire.Table_submit (Table.slots (table_exn t "dc")));
          true
      | Ok _ | Error _ -> false);
  t

let dc_insert t item = Table.insert (table_exn t "dc_insert") item
let dc_state t = Wire.encode (Wire.Table_submit (Table.slots (table_exn t "dc_state")))

let dc_load t blob =
  match Wire.decode ~kind:"psc.table" blob with
  | Ok (Wire.Table_submit slots) -> (
      match t.table with
      | None -> Error (Bus.Codec.Invalid "restore before joint key")
      | Some table ->
          let ok =
            match Table.load_slots table slots with
            | () -> true
            | exception Invalid_argument _ -> false
          in
          Obs.Ledger.proof ~kind:"bus-restore-dc" ~party:t.dc_id ~ok
            ~batch:(Array.length slots);
          if ok then Ok () else Error (Bus.Codec.Invalid "table size mismatch"))
  | Ok _ -> Error (Bus.Codec.Invalid "not a table blob")
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Tally server / aggregator *)

type stage =
  | Waiting  (** no cascade step in flight *)
  | Chain of { cp : int; vector : Crypto.Elgamal.ciphertext array }
      (** [vector] is the chain input being verified against *)
  | Decrypt of { vector : Crypto.Elgamal.ciphertext array }

type ts = {
  ts_sched : Bus.Sched.t;
  ts_cfg : cfg;
  rounds : int;
  mutable stage : stage;
  mutable keys : (int * (Crypto.Elgamal.pub * Crypto.Sigma.schnorr_proof)) list;
  mutable verifier : Protocol.verifier option;
  mutable tables : (int * Crypto.Elgamal.ciphertext array) list;
  mutable noise : (int * (Crypto.Elgamal.ciphertext * Crypto.Bit_proof.t) array) list;
  mutable dec_shares : (int * Cp.decryption_share) list;
  mutable result : (Protocol.result * string) option;
}

(* messages arrive in delivery order; every check runs in CP id order *)
let by_id entries =
  Array.of_list (List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) entries))

let verifier_exn t =
  match t.verifier with
  | Some v -> v
  | None -> invalid_arg "Node.ts: joint key not established"

let post t ~epoch dst msg = Wire.post t.ts_sched ~epoch ~src:Bus.Party.Ts ~dst msg

let spawn_ts sched cfg =
  let rounds =
    match cfg.round.Protocol.proof_rounds with
    | Some r when cfg.round.Protocol.verify -> r
    | _ -> invalid_arg "Node.spawn_ts: bus rounds are always verified"
  in
  let num_cps = cfg.round.Protocol.num_cps in
  let t =
    {
      ts_sched = sched;
      ts_cfg = cfg;
      rounds;
      stage = Waiting;
      keys = [];
      verifier = None;
      tables = [];
      noise = [];
      dec_shares = [];
      result = None;
    }
  in
  Bus.Sched.register sched Bus.Party.Ts (fun env ->
      let epoch = env.Bus.Envelope.epoch in
      let src_cp () =
        match env.Bus.Envelope.src with
        | Bus.Party.Cp cp -> cp
        | p ->
            invalid_arg
              (Printf.sprintf "Node.ts: CP message from %s" (Bus.Party.to_string p))
      in
      match Wire.decode ~kind:env.Bus.Envelope.kind env.Bus.Envelope.body with
      | Ok (Wire.Cp_key { pub; proof }) ->
          t.keys <- (src_cp (), (pub, proof)) :: t.keys;
          if List.length t.keys = num_cps then begin
            let v = Protocol.verifier cfg.round (by_id t.keys) in
            t.verifier <- Some v;
            let joint = Wire.Joint { joint = Protocol.joint v } in
            for dc = 0 to cfg.num_dcs - 1 do
              post t ~epoch (Bus.Party.Dc dc) joint
            done;
            for cp = 0 to num_cps - 1 do
              post t ~epoch (Bus.Party.Cp cp) joint
            done
          end;
          true
      | Ok (Wire.Table_submit slots) ->
          (match env.Bus.Envelope.src with
          | Bus.Party.Dc dc -> t.tables <- (dc, slots) :: t.tables
          | _ -> invalid_arg "Node.ts: table from non-DC");
          true
      | Ok (Wire.Noise_slots proven) ->
          t.noise <- (src_cp (), proven) :: t.noise;
          if List.length t.noise = num_cps then begin
            let v = verifier_exn t in
            let combined = Table.combine_vectors (Array.to_list (by_id t.tables)) in
            let per_cp = Array.mapi (fun cp -> Protocol.check_noise v ~cp) (by_id t.noise) in
            let vector = Array.concat (combined :: Array.to_list per_cp) in
            t.stage <- Chain { cp = 0; vector };
            post t ~epoch (Bus.Party.Cp 0) (Wire.Shuffle_request { vector; rounds })
          end;
          true
      | Ok (Wire.Shuffled { output; proof }) -> (
          let cp = src_cp () in
          match t.stage with
          | Chain { cp = expect; vector } when cp = expect ->
              Protocol.check_shuffle (verifier_exn t) ~cp ~input:vector ~output proof;
              post t ~epoch (Bus.Party.Cp cp) (Wire.Rerand_request output);
              true
          | _ -> invalid_arg "Node.ts: unexpected shuffle output")
      | Ok (Wire.Rerandomized vector) -> (
          let cp = src_cp () in
          match t.stage with
          | Chain { cp = expect; _ } when cp = expect ->
              if cp + 1 < num_cps then begin
                t.stage <- Chain { cp = cp + 1; vector };
                post t ~epoch (Bus.Party.Cp (cp + 1)) (Wire.Shuffle_request { vector; rounds })
              end
              else begin
                t.stage <- Decrypt { vector };
                for c = 0 to num_cps - 1 do
                  post t ~epoch (Bus.Party.Cp c) (Wire.Decrypt_request vector)
                done
              end;
              true
          | _ -> invalid_arg "Node.ts: unexpected rerandomized vector")
      | Ok (Wire.Decrypt_share { shares; proofs }) -> (
          let cp = src_cp () in
          match t.stage with
          | Decrypt { vector } ->
              t.dec_shares <- (cp, { Cp.cp_id = cp; shares; proofs }) :: t.dec_shares;
              if List.length t.dec_shares = num_cps then begin
                let v = verifier_exn t in
                let res =
                  Protocol.result_of v
                    ~raw_nonzero:(Protocol.decrypt_count v vector (by_id t.dec_shares))
                in
                t.stage <- Waiting;
                t.result <- Some (res, Wire.encode_result res)
              end;
              true
          | _ -> invalid_arg "Node.ts: unexpected decryption share")
      | Ok _ | Error _ -> false);
  t

let ts_request_tables t ~epoch ~dcs =
  List.iter (fun dc -> post t ~epoch (Bus.Party.Dc dc) Wire.Table_request) dcs

let ts_start_aggregate t ~epoch =
  if t.tables = [] then invalid_arg "Node.ts_start_aggregate: no tables";
  for cp = 0 to t.ts_cfg.round.Protocol.num_cps - 1 do
    post t ~epoch (Bus.Party.Cp cp)
      (Wire.Noise_request { flips = t.ts_cfg.round.Protocol.noise_flips_per_cp })
  done

let ts_result t = t.result
