type tamper = { tampered_cp : int; action : [ `Shuffle_swap | `Noise_nonbit ] }

type config = {
  table_size : int;
  num_cps : int;
  noise_flips_per_cp : int;
  tamper : tamper option;
      (* fault injection for tests: make one CP misbehave and check the
         proofs identify it *)
  dp : Dp.Mechanism.params option;
      (* the (eps, delta) the noise was calibrated for; recorded as a
         budget grant + draw in the run ledger when present *)
}

let config ?(num_cps = 3) ?(noise_flips_per_cp = 64) ?proof_rounds:_ ?(verify = true) ?tamper
    ?dp ~table_size () =
  if not verify then invalid_arg "Protocol.config: every PSC round is proven";
  if table_size <= 0 then invalid_arg "Protocol.config: table_size must be positive";
  if num_cps < 1 then invalid_arg "Protocol.config: need at least one CP";
  if noise_flips_per_cp < 0 then invalid_arg "Protocol.config: negative flips";
  { table_size; num_cps; noise_flips_per_cp; tamper; dp }

let flips_for_params params ~sensitivity ~num_cps =
  let total = Dp.Mechanism.binomial_n_for params ~sensitivity in
  (total + num_cps - 1) / num_cps

type result = {
  raw_nonzero : int;
  total_flips : int;
  estimate : float;
  ci : Stats.Ci.t;
  proofs_ok : bool;
  culprits : int list;
}

(* ------------------------------------------------------------------ *)
(* Per-phase derivations and checks. The in-process round below and
   the bus-hosted parties (Node) both call exactly these, so the two
   agree on every DRBG stream, ledger proof and published byte by
   construction. *)

let round_key ~seed =
  Crypto.Hmac.keyed (Crypto.Sha256.digest (Printf.sprintf "psc-round-key|%d" seed))

let dc_table ?tab cfg ~seed ~dc joint =
  let drbg = Crypto.Drbg.create (Printf.sprintf "psc-dc|%d|%d" seed dc) in
  Table.create ?tab ~table_size:cfg.table_size ~key:(round_key ~seed) ~joint ~drbg ()

let tampers cfg cp action =
  match cfg.tamper with
  | Some { tampered_cp; action = a } -> tampered_cp = Cp.id cp && a = action
  | None -> false

(* Only one CP tampers, with one action, so each fault draws from a
   fresh copy of the same stream. *)
let tamper_drbg () = Crypto.Drbg.create "psc-tamper"

let proven_noise cfg ?tab cp ~joint ~flips =
  let proven = Cp.noise_slots ?tab cp ~joint ~flips in
  if tampers cfg cp `Noise_nonbit && Array.length proven > 0 then begin
    (* a Byzantine CP injects Enc(marker^2) as "noise" with a forged
       bit proof *)
    let drbg = tamper_drbg () in
    let r = Crypto.Group.random_exp drbg in
    let bad =
      Crypto.Elgamal.encrypt_with ~r joint
        (Crypto.Group.mul Crypto.Elgamal.marker Crypto.Elgamal.marker)
    in
    proven.(0) <- (bad, Crypto.Bit_proof.prove drbg ~pk:joint ~r ~bit:true bad)
  end;
  proven

let cp_shuffle cfg ?tab cp ~joint vector =
  let output, proof = Cp.shuffle ?tab cp ~joint vector in
  if tampers cfg cp `Shuffle_swap && Array.length output > 0 then begin
    (* a Byzantine CP substitutes a slot after shuffling and keeps the
       honest proof *)
    let output = Array.copy output in
    output.(0) <- Crypto.Elgamal.encrypt (tamper_drbg ()) joint Crypto.Elgamal.marker;
    (output, proof)
  end
  else (output, proof)

type verifier = {
  vcfg : config;
  joint : Crypto.Elgamal.pub;
  joint_tab : Crypto.Group.precomp; (* fixed-base table for [joint], built once per round *)
  pubs : Crypto.Elgamal.pub array;
  mutable culprits : int list;
}

let blame v cp = if not (List.mem cp v.culprits) then v.culprits <- cp :: v.culprits

let verifier cfg keys =
  Array.iteri
    (fun id (pub, proof) ->
      let ok = Cp.verify_key_proof ~id ~pub proof in
      Obs.Ledger.proof ~kind:"psc-key" ~party:id ~ok ~batch:1;
      if not ok then
        (* torlint: allow hygiene/failwith-in-lib — setup abort on a bad
           CP key proof is the protocol-mandated response *)
        failwith "Protocol: CP key proof rejected")
    keys;
  let pubs = Array.map fst keys in
  let joint = Crypto.Elgamal.joint_pub (Array.to_list pubs) in
  {
    vcfg = cfg;
    joint;
    joint_tab = Crypto.Group.precomp joint;
    pubs;
    culprits = [];
  }

let joint v = v.joint

let check_noise v ~cp proven =
  (* one folded check per CP rather than one per slot *)
  let ok =
    match Crypto.Bit_proof.verify_batch ~pk_tab:v.joint_tab ~pk:v.joint proven with
    | Crypto.Batch_verify.Accepted -> true
    | Crypto.Batch_verify.Rejected _ -> false
  in
  Obs.Ledger.proof ~kind:"psc-noise-bit" ~party:cp ~ok ~batch:(Array.length proven);
  if not ok then blame v cp;
  Array.map fst proven

let check_shuffle v ~cp ~input ~output proof =
  Obs.Ledger.phase "psc.verify_shuffle" ~attrs:[ ("cp", string_of_int cp) ] @@ fun () ->
  match proof with
  | Some proof ->
    let ok = Crypto.Shuffle.verify ~tab:v.joint_tab v.joint ~input ~output proof in
    Obs.Ledger.proof ~kind:"psc-shuffle" ~party:cp ~ok ~batch:(Array.length input);
    if not ok then blame v cp
  | None ->
    (* a CP that was asked for a proof and produced none fails
       verification outright *)
    Obs.Ledger.proof ~kind:"psc-shuffle" ~party:cp ~ok:false ~batch:0;
    blame v cp

let decrypt_count v vector (shares : Cp.decryption_share array) =
  if Array.length shares <> Array.length v.pubs then
    invalid_arg "Protocol.decrypt_count: one share vector per CP";
  let n = Array.length vector in
  Array.iteri
    (fun cp share ->
      let ok = Cp.verify_decryption ~pub:v.pubs.(cp) ~vector share in
      Obs.Ledger.proof ~kind:"psc-decrypt" ~party:cp ~ok ~batch:n;
      if not ok then blame v cp)
    shares;
  (* a share vector of the wrong length is blamed above and left out
     here; once anyone is blamed the count means nothing, as with a
     forged share, and [proofs_ok] says so *)
  let shares =
    Array.of_list
      (List.filter (fun s -> Array.length s.Cp.shares = n) (Array.to_list shares))
  in
  let plains =
    Crypto.Elgamal.combine_partial_all vector ~parties:(Array.length shares)
      ~share:(fun p i -> shares.(p).Cp.shares.(i))
  in
  Array.fold_left
    (fun n plain -> if Crypto.Elgamal.is_identity_plaintext plain then n else n + 1)
    0 plains

(* Estimator: subtract the binomial noise mean, invert the occupancy
   bias, attach the exact interval. *)
let estimate_of ~table_size ~raw_nonzero ~total_flips =
  let occupied = float_of_int raw_nonzero -. (float_of_int total_flips /. 2.0) in
  let estimate =
    Stats.Ci.invert_occupancy ~table_size
      (max 0.0 (min occupied (float_of_int table_size -. 1.0)))
  in
  let ci =
    Stats.Ci.binomial_exact ~confidence:0.95 ~observed:raw_nonzero ~flips:total_flips
      ~table_size ()
  in
  (estimate, ci)

let result_of v ~raw_nonzero =
  let cfg = v.vcfg in
  let total_flips = cfg.noise_flips_per_cp * Array.length v.pubs in
  let estimate, ci =
    Obs.Ledger.phase "psc.estimate" @@ fun () ->
    estimate_of ~table_size:cfg.table_size ~raw_nonzero ~total_flips
  in
  {
    raw_nonzero;
    total_flips;
    estimate;
    ci;
    proofs_ok = v.culprits = [];
    culprits = List.sort compare v.culprits;
  }

(* ------------------------------------------------------------------ *)
(* In-process round *)

type t = {
  cfg : config;
  cps : Cp.t array;
  v : verifier;
  round_key : Crypto.Hmac.keyed;
  tables : Table.t array;
  (* simulator-side ground truth of inserted items, for diagnostics *)
  inserted : (string, unit) Hashtbl.t array;
  mutable finished : bool;
}

let create cfg ~num_dcs ~seed =
  if num_dcs < 1 then invalid_arg "Protocol.create: need at least one DC";
  let cps = Array.init cfg.num_cps (fun id -> Cp.create ~id ~seed) in
  (* CPs publish keys with proofs of knowledge; the TS checks them. *)
  let v = verifier cfg (Array.map (fun cp -> (Cp.public_key cp, Cp.key_proof cp)) cps) in
  {
    cfg;
    cps;
    v;
    round_key = round_key ~seed;
    tables = Array.init num_dcs (fun dc -> dc_table ~tab:v.joint_tab cfg ~seed ~dc v.joint);
    inserted = Array.init num_dcs (fun _ -> Hashtbl.create 256);
    finished = false;
  }

let insert t ~dc item =
  if t.finished then invalid_arg "Protocol.insert: round already run";
  if dc < 0 || dc >= Array.length t.tables then invalid_arg "Protocol.insert: bad dc";
  Table.insert t.tables.(dc) item;
  if not (Hashtbl.mem t.inserted.(dc) item) then Hashtbl.replace t.inserted.(dc) item ()

let true_union_size t =
  let all = Hashtbl.create 1024 in
  Array.iter
    (fun tbl ->
      (* torlint: allow determinism/hashtbl-order — set union into [all],
         only its cardinality is read *)
      Hashtbl.iter (fun item () -> Hashtbl.replace all item ()) tbl)
    t.inserted;
  Hashtbl.length all

let run t =
  if t.finished then invalid_arg "Protocol.run: round already run";
  (* Worker count for this round; all parallel phases below run on the
     same pool. Workers record nothing: every phase and proof event is
     appended on the orchestrating domain, so the ledger is the same at
     any pool size. *)
  let jobs = Parallel.jobs () in
  let jobs_attr = ("jobs", string_of_int jobs) in
  Obs.Ledger.phase "psc.run"
    ~attrs:
      [ ("table_size", string_of_int t.cfg.table_size);
        ("cps", string_of_int (Array.length t.cps));
        ("dcs", string_of_int (Array.length t.tables));
        jobs_attr ]
  @@ fun () ->
  t.finished <- true;
  (match t.cfg.dp with
  | Some p ->
    Obs.Ledger.grant ~system:"psc" ~epsilon:p.Dp.Mechanism.epsilon ~delta:p.Dp.Mechanism.delta;
    Obs.Ledger.draw ~system:"psc" ~counter:"cardinality" ~mechanism:"binomial"
      ~epsilon:p.Dp.Mechanism.epsilon ~delta:p.Dp.Mechanism.delta
  | None -> ());
  let v = t.v and flips = t.cfg.noise_flips_per_cp in
  (* 1. combine the DCs' tables into the encrypted union *)
  let combined =
    Obs.Ledger.phase "psc.combine" ~attrs:[ jobs_attr ] (fun () ->
        Table.combine (Array.to_list t.tables))
  in
  (* 2. every CP appends its encrypted noise bits, each slot with a
     disjunctive bit-validity proof checked here *)
  let with_noise =
    Obs.Ledger.phase "psc.noise"
      ~attrs:[ ("flips_per_cp", string_of_int flips); jobs_attr ]
    @@ fun () ->
    let per_cp =
      Array.map
        (fun cp ->
          check_noise v ~cp:(Cp.id cp)
            (proven_noise t.cfg ~tab:v.joint_tab cp ~joint:v.joint ~flips))
        t.cps
    in
    (* single allocation + blits; the old fold re-copied the whole
       vector once per CP *)
    Array.concat (combined :: Array.to_list per_cp)
  in
  (* 3. shuffle/rerandomize pipeline, one pass per CP, proofs checked *)
  let shuffled =
    Array.fold_left
      (fun vector cp ->
        let cp_attr = [ ("cp", string_of_int (Cp.id cp)); jobs_attr ] in
        let output =
          Obs.Ledger.phase "psc.shuffle" ~attrs:cp_attr (fun () ->
              let output, proof = cp_shuffle t.cfg ~tab:v.joint_tab cp ~joint:v.joint vector in
              check_shuffle v ~cp:(Cp.id cp) ~input:vector ~output (Some proof);
              output)
        in
        Obs.Ledger.phase "psc.rerandomize" ~attrs:cp_attr (fun () ->
            Cp.rerandomize_bits cp output))
      with_noise t.cps
  in
  (* 4. joint verifiable decryption *)
  let raw_nonzero =
    Obs.Ledger.phase "psc.decrypt" ~attrs:[ jobs_attr ] (fun () ->
        decrypt_count v shuffled
          (Array.map (fun cp -> Cp.decrypt_shares cp shuffled) t.cps))
  in
  (* 5. estimate: subtract the noise mean, invert the occupancy bias *)
  result_of v ~raw_nonzero
