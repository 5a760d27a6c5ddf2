(* Telemetry subsystem: a process-wide metrics registry, nested tracing
   spans, an append-only audit ledger, and exporters. Everything is off
   by default; recording entry points check one global flag, so
   instrumented hot paths cost a load and a branch when telemetry is
   disabled and leave no residue. Nothing here is synchronised: only
   the orchestrating domain records, never a pool worker (DESIGN.md
   §3b; torlint's domain-safety rule enforces it). *)

module Metrics = Metrics
module Trace = Trace
module Ledger = Ledger
module Export = Export

let enabled = Control.enabled
let set_enabled = Control.set_enabled
let with_enabled = Control.with_enabled

let reset () =
  Metrics.reset ();
  Trace.reset ();
  Ledger.reset ()
