(* Global on/off switch for the whole telemetry subsystem. Every
   recording entry point checks [on] first, so with telemetry disabled
   the instrumentation in the hot paths costs one load and one branch
   and leaves no residue in the ledger. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

let with_enabled b f =
  let prev = !on in
  on := b;
  Fun.protect ~finally:(fun () -> on := prev) f
