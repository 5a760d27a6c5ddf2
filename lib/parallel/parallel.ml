(* A fixed pool of worker domains executing index-ordered chunked
   loops. Determinism contract: worker functions are pure per index
   (randomness is pre-drawn sequentially by callers), each index writes
   only its own result slot, and chunk hand-out order can therefore not
   affect any observable result — jobs=N is bit-identical to jobs=1.
   Workers record no telemetry; the caller records around the call.

   Synchronisation is a single mutex + condition per pool: the caller
   publishes a job under the lock and bumps the epoch; workers pick it
   up, run chunks until the shared atomic cursor is exhausted, and the
   last one out broadcasts completion. The calling domain participates
   in every job, so a pool of size [jobs] holds [jobs - 1] domains. *)

(* OCaml 5.1's runtime caps live domains at 128 on 64-bit (Max_domains
   in caml/domain.h); past it [Domain.spawn] fails with workers already
   started and blocked on the pool condition. *)
let max_jobs = 128

(* Pool size requested by the environment: [REPRO_JOBS] when set to an
   integer in [1, max_jobs], else 1. *)
let default_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_jobs -> n
    | Some _ | None -> 1)

type pool = {
  size : int;  (* worker domains, excluding the calling domain *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable epoch : int;    (* bumped once per published job *)
  mutable active : int;   (* workers still inside the current job *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let requested = ref None (* set_jobs override; None = environment *)
let current = ref None
(* true while a job is in flight: nested calls (from workers, or from
   the job function on the calling domain) fall back to sequential *)
let busy = Atomic.make false

let jobs () =
  match !requested with
  | Some n -> n
  | None -> default_jobs ()

let worker pool () =
  let seen = ref 0 in
  Mutex.lock pool.mutex;
  let rec loop () =
    while (not pool.stop) && pool.epoch = !seen do
      Condition.wait pool.cond pool.mutex
    done;
    if not pool.stop then begin
      seen := pool.epoch;
      let job = pool.job in
      Mutex.unlock pool.mutex;
      (match job with Some f -> f () | None -> ());
      Mutex.lock pool.mutex;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.cond;
      loop ()
    end
  in
  loop ();
  Mutex.unlock pool.mutex

let spawn_pool size =
  let pool =
    {
      size;
      mutex = Mutex.create ();
      cond = Condition.create ();
      job = None;
      epoch = 0;
      active = 0;
      stop = false;
      domains = [||];
    }
  in
  pool.domains <- Array.init size (fun _ -> Domain.spawn (worker pool));
  pool

let shutdown_pool pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains

let shutdown () =
  match !current with
  | None -> ()
  | Some pool ->
    current := None;
    shutdown_pool pool

let () = at_exit shutdown

let set_jobs n =
  if n < 1 then invalid_arg "Parallel.set_jobs: pool size must be positive";
  if n > max_jobs then
    invalid_arg (Printf.sprintf "Parallel.set_jobs: pool size above the runtime's %d domains" max_jobs);
  requested := Some n;
  (match !current with
  | Some pool when pool.size <> n - 1 -> shutdown ()
  | Some _ | None -> ())

(* The pool for the current [jobs ()] setting, started on demand. *)
let get_pool () =
  let want = jobs () - 1 in
  if want < 1 then None
  else
    match !current with
    | Some pool when pool.size = want -> Some pool
    | Some _ ->
      shutdown ();
      let pool = spawn_pool want in
      current := Some pool;
      Some pool
    | None ->
      let pool = spawn_pool want in
      current := Some pool;
      Some pool

(* Publish [job] to the workers, run it on the calling domain too, and
   wait until every worker has drained it. *)
let run_job pool job =
  Mutex.lock pool.mutex;
  pool.job <- Some job;
  pool.active <- pool.size;
  pool.epoch <- pool.epoch + 1;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  job ();
  Mutex.lock pool.mutex;
  while pool.active > 0 do
    Condition.wait pool.cond pool.mutex
  done;
  pool.job <- None;
  Mutex.unlock pool.mutex

let sequential_for lo n f =
  for i = lo to lo + n - 1 do
    f i
  done

(* Core loop: indices [lo, lo + n) in dynamically handed-out,
   index-ordered chunks. *)
let range_for ?(min_chunk = 32) lo n f =
  if n > 0 then begin
    if min_chunk < 1 then invalid_arg "Parallel: min_chunk must be positive";
    match (if Atomic.get busy then None else get_pool ()) with
    | None -> sequential_for lo n f
    | Some pool ->
      let workers = pool.size + 1 in
      (* small chunks keep the tail balanced; 4 hand-outs per worker *)
      let chunk = max min_chunk (((n + (workers * 4) - 1) / (workers * 4))) in
      if chunk >= n then sequential_for lo n f
      else begin
        let next = Atomic.make 0 in
        let error = Atomic.make None in
        let job () =
          let continue = ref true in
          while !continue do
            let start = Atomic.fetch_and_add next chunk in
            if start >= n || Atomic.get error <> None then continue := false
            else
              try sequential_for (lo + start) (min chunk (n - start)) f
              with e ->
                Atomic.set error (Some e);
                continue := false
          done
        in
        Atomic.set busy true;
        Fun.protect ~finally:(fun () -> Atomic.set busy false) (fun () -> run_job pool job);
        match Atomic.get error with None -> () | Some e -> raise e
      end
  end

let parallel_for ?min_chunk n f = range_for ?min_chunk 0 n f

let parallel_init ?min_chunk n f =
  if n < 0 then invalid_arg "Parallel.parallel_init: negative size";
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    range_for ?min_chunk 1 (n - 1) (fun i -> out.(i) <- f i);
    out
  end
