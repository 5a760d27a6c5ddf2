type fault =
  | Dc_crash of { dc : int; epoch : int }
  | Churn of { epoch : int; delta : int }
  | Slow of { party : Party.t; factor : int }
  | Malicious_cp of { cp : int }
  | Restart of { epoch : int }

type t = {
  name : string;
  summary : string;
  faults : fault list;
}

let catalogue =
  [
    {
      name = "benign";
      summary = "all parties honest and live; the bus must reproduce the \
                 in-process pipelines byte-for-byte";
      faults = [];
    };
    {
      name = "dc-crash";
      summary = "one DC crashes mid-collection in epoch 0; the tally \
                 excludes its shares via dropout recovery";
      faults = [ Dc_crash { dc = 1; epoch = 0 } ];
    };
    {
      name = "churn";
      summary = "relay churn: one DC leaves the deployment from epoch 1 on";
      faults = [ Churn { epoch = 1; delta = -1 } ];
    };
    {
      name = "slow-cp";
      summary = "one CP's links are 8x slower; published values must be \
                 unchanged, only the delivery schedule differs";
      faults = [ Slow { party = Party.Cp 1; factor = 8 } ];
    };
    {
      name = "malicious-cp";
      summary = "one CP tampers with its shuffle and forges the proof; \
                 honest parties must blame it and the ledger records the \
                 failed proof";
      faults = [ Malicious_cp { cp = 1 } ];
    };
    {
      name = "restart";
      summary = "the deployment is torn down after epoch 0's collection \
                 and resumed from checkpoint; published tallies must equal \
                 the benign run's exactly";
      faults = [ Restart { epoch = 0 } ];
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) catalogue
let names () = List.map (fun s -> s.name) catalogue

let crashed_dc t ~epoch =
  List.find_map
    (function Dc_crash { dc; epoch = e } when e = epoch -> Some dc | _ -> None)
    t.faults

let dcs_at t ~base_dcs ~epoch =
  List.fold_left
    (fun n f ->
      match f with
      | Churn { epoch = e; delta } when epoch >= e -> max 1 (n + delta)
      | _ -> n)
    base_dcs t.faults

let slow t =
  List.filter_map
    (function Slow { party; factor } -> Some (party, factor) | _ -> None)
    t.faults

let malicious_cp t =
  List.find_map (function Malicious_cp { cp } -> Some cp | _ -> None) t.faults

let reference_comparable t =
  not (List.exists (function Dc_crash _ -> true | _ -> false) t.faults)

let restart_epoch t =
  List.find_map (function Restart { epoch } -> Some epoch | _ -> None) t.faults
