(* Lightweight nested tracing spans. A span records wall clock (via
   Unix.gettimeofday), the Gc allocation delta (children included), its
   nesting depth/parent, and user attributes. [with_span] is the one
   place in the telemetry subsystem that reads the clock and the
   allocation counter: a ledger Phase event is built from the closed
   span handed to [on_close]. Spans are kept in an
   in-process buffer for export at end of run; a capacity cap bounds
   memory on event-heavy runs (drops are counted, nesting bookkeeping
   keeps working). With telemetry disabled, [with_span] is just a call
   to the thunk.

   The buffer and nesting stack are process-global and unsynchronised:
   only the orchestrating domain opens spans, never a pool worker
   (DESIGN.md §3b). Span ids, parents and depths therefore depend only
   on the orchestrating code, not on the pool size. *)

type span = {
  id : int;
  parent : int option;
  depth : int;  (* 0 = root *)
  name : string;
  attrs : (string * string) list;
  start_s : float;      (* Unix epoch seconds at entry *)
  duration_s : float;
  alloc_bytes : float;  (* Gc.allocated_bytes delta, children included *)
}

(* an open span on the nesting stack *)
type frame = { fid : int; fdepth : int }

let next_id = ref 0
let stack : frame list ref = ref []
let finished : span list ref = ref [] (* reverse completion order *)
let count = ref 0
let capacity = ref 100_000
let dropped_count = ref 0

let record sp =
  if !count >= !capacity then incr dropped_count
  else begin
    finished := sp :: !finished;
    incr count
  end

let now () = Unix.gettimeofday ()

let with_span ?(attrs = []) ?on_close name f =
  if not !Control.on then f ()
  else begin
    incr next_id;
    let parent, depth =
      match !stack with [] -> (None, 0) | fr :: _ -> (Some fr.fid, fr.fdepth + 1)
    in
    let id = !next_id in
    let start_s = now () and alloc0 = Gc.allocated_bytes () in
    stack := { fid = id; fdepth = depth } :: !stack;
    let finish attrs =
      let duration_s = now () -. start_s in
      let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
      (* Pop down to this span's frame even if the thunk leaked frames
         above it (an exception that unwound through children, or a
         reset mid-span that emptied the stack entirely). *)
      let rec pop = function
        | top :: tl -> if top.fid = id then stack := tl else pop tl
        | [] -> ()
      in
      if List.exists (fun top -> top.fid = id) !stack then pop !stack;
      let sp = { id; parent; depth; name; attrs; start_s; duration_s; alloc_bytes } in
      record sp;
      Option.iter (fun k -> k sp) on_close
    in
    match f () with
    | v ->
      finish attrs;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish (attrs @ [ ("error", Printexc.to_string e) ]);
      Printexc.raise_with_backtrace e bt
  end

let spans () = List.rev !finished
let dropped () = !dropped_count
let set_capacity n = if n < 0 then invalid_arg "Trace.set_capacity" else capacity := n

let reset () =
  next_id := 0;
  stack := [];
  finished := [];
  count := 0;
  dropped_count := 0
