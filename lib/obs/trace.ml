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

   Recording is store-based: the process-global store, or — inside a
   pool task bracketed by [scope_begin]/[scope_end] — a domain-local
   scope store whose spans carry task-local ids and task-relative
   depths. [scope_merge] renumbers a scope's spans under the caller's
   currently open span, so merging per-chunk scopes in index order
   reproduces the exact stream a sequential run would have produced
   (ids, parents, depths and all — only the timing fields differ). *)

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

type store = {
  mutable snext : int;
  mutable sstack : frame list;
  mutable sfinished : span list;  (* reverse completion order *)
  mutable scount : int;
}

let make_store () = { snext = 0; sstack = []; sfinished = []; scount = 0 }

let global = make_store ()
let capacity = ref 100_000
let dropped_count = ref 0

type scope = store

let scope_key : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let scope_begin () = Domain.DLS.set scope_key (Some (make_store ()))

let scope_end () =
  match Domain.DLS.get scope_key with
  | Some s ->
    Domain.DLS.set scope_key None;
    s
  | None -> make_store () (* unbalanced end: merge of the empty scope is a no-op *)

let store () = match Domain.DLS.get scope_key with Some s -> s | None -> global

(* The capacity cap guards the long-lived global buffer; scope buffers
   are bounded by their chunk and counted against the cap at merge. *)
let record st sp =
  if st == global && st.scount >= !capacity then incr dropped_count
  else begin
    st.sfinished <- sp :: st.sfinished;
    st.scount <- st.scount + 1
  end

let now () = Unix.gettimeofday ()

let with_span ?(attrs = []) ?on_close name f =
  if not !Control.on then f ()
  else begin
    let st = store () in
    st.snext <- st.snext + 1;
    let parent, depth =
      match st.sstack with [] -> (None, 0) | fr :: _ -> (Some fr.fid, fr.fdepth + 1)
    in
    let id = st.snext in
    let start_s = now () and alloc0 = Gc.allocated_bytes () in
    st.sstack <- { fid = id; fdepth = depth } :: st.sstack;
    let finish attrs =
      let duration_s = now () -. start_s in
      let alloc_bytes = Gc.allocated_bytes () -. alloc0 in
      (* Pop down to this span's frame even if the thunk leaked frames
         above it (an exception that unwound through children, or a
         reset mid-span that emptied the stack entirely). *)
      let rec pop = function
        | top :: tl -> if top.fid = id then st.sstack <- tl else pop tl
        | [] -> ()
      in
      if List.exists (fun top -> top.fid = id) st.sstack then pop st.sstack;
      let sp = { id; parent; depth; name; attrs; start_s; duration_s; alloc_bytes } in
      record st sp;
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

(* Renumber a scope's spans as if they had been recorded inline at the
   current point: local ids shift past every id the global store has
   handed out, local roots attach under the innermost open global span,
   and depths shift by that anchor's depth. *)
let scope_merge (s : scope) =
  let base = global.snext in
  let anchor_parent, anchor_depth =
    match global.sstack with [] -> (None, 0) | fr :: _ -> (Some fr.fid, fr.fdepth + 1)
  in
  List.iter
    (fun sp ->
      record global
        { sp with
          id = base + sp.id;
          parent =
            (match sp.parent with Some p -> Some (base + p) | None -> anchor_parent);
          depth = sp.depth + anchor_depth })
    (List.rev s.sfinished);
  global.snext <- base + s.snext

let spans () = List.rev global.sfinished
let dropped () = !dropped_count
let set_capacity n = if n < 0 then invalid_arg "Trace.set_capacity" else capacity := n

let reset () =
  global.snext <- 0;
  global.sstack <- [];
  global.sfinished <- [];
  global.scount <- 0;
  dropped_count := 0
