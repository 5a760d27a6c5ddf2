(* Telemetry subsystem: the run ledger, the one record of what a run
   did (budget draws, proof outcomes, the phase tree, notes). It is off
   by default; recording entry points check one global flag, so
   instrumented hot paths cost a load and a branch when telemetry is
   disabled and leave no residue. Nothing here is synchronised: only
   the orchestrating domain records, never a pool worker (DESIGN.md
   §3b; torlint's domain-safety rule enforces it). *)

module Ledger = Ledger

let enabled = Control.enabled
let set_enabled = Control.set_enabled
let with_enabled = Control.with_enabled
let reset = Ledger.reset
