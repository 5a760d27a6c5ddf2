(* Relays of the simulated consensus. Bandwidth weights play the role of
   Tor's consensus weights: clients pick guards/middles/exits/HSDirs with
   probability proportional to the relevant weight. *)

type id = int

type flags = {
  guard : bool;
  exit : bool;
  hsdir : bool;
}

type t = {
  id : id;
  nickname : string;
  bandwidth : float;  (* consensus weight units *)
  flags : flags;
}

let make ~id ~nickname ~bandwidth ~guard ~exit ~hsdir =
  if bandwidth <= 0.0 then invalid_arg "Relay.make: bandwidth must be positive";
  { id; nickname; bandwidth; flags = { guard; exit; hsdir } }

(* Position weights, after Tor's consensus bandwidth-weight system: a
   guard-flagged relay spends [wgg] of its bandwidth in the guard
   position and the rest as a middle; exit bandwidth is scarce, so
   exit-flagged relays are reserved for the exit position (Wme = 0). *)
let wgg = 0.61

let guard_weight r = if r.flags.guard && not r.flags.exit then r.bandwidth *. wgg else 0.0
let exit_weight r = if r.flags.exit then r.bandwidth else 0.0

let middle_weight r =
  if r.flags.exit then 0.0
  else if r.flags.guard then r.bandwidth *. (1.0 -. wgg)
  else r.bandwidth

let is_hsdir r = r.flags.hsdir
