(** Deterministic data-parallel kernels over a fixed domain pool.

    The aggregation pipelines (PSC, PrivCount) are bit-for-bit
    reproducible, and parallel execution must not weaken that: every
    combinator here guarantees that the result is identical at any pool
    size, including the sequential [jobs = 1] path. The contract that
    makes this true is the {e pre-drawn randomness rule}: worker
    functions must be pure per index — callers draw any DRBG values in
    a sequential prepass and workers execute only arithmetic. Chunks
    are handed out dynamically, but each index [i] only ever writes
    slot [i] of the result, so scheduling cannot reorder anything
    observable. See DESIGN.md §3c.

    Workers record no telemetry: [Obs] is unsynchronised, so spans,
    metrics and ledger events are recorded by the calling domain
    before or after the call (DESIGN.md §3b). torlint's domain-safety
    rule flags a worker that reaches [Obs].

    The pool holds [jobs () - 1] worker domains (the calling domain
    participates as the last worker) and is started lazily on the first
    parallel call with [jobs () > 1]. With the default [jobs () = 1]
    every combinator is exactly its sequential equivalent — no domains,
    no atomics, no barrier. *)

val jobs : unit -> int
(** Current pool size (workers + the calling domain). *)

val max_jobs : int
(** 128: the most domains OCaml 5.1's runtime runs at once. *)

val set_jobs : int -> unit
(** Set the pool size; raises [Invalid_argument] outside
    [[1, max_jobs]], before any domain starts. An already-running pool
    of a different size is shut down and restarted lazily at the new
    size. *)

val parallel_for : ?min_chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n f] runs [f i] for every [i] in [[0, n)], split into
    index-ordered chunks of at least [min_chunk] (default 32) indices.
    [f] must be pure up to writes into disjoint per-index slots. Any
    exception raised by [f] is re-raised in the caller after all
    workers have stopped. *)

val parallel_init : ?min_chunk:int -> int -> (int -> 'a) -> 'a array
(** Deterministic parallel [Array.init]: element [i] is [f i]
    regardless of pool size. [f 0] is evaluated first, on the calling
    domain. *)

val shutdown : unit -> unit
(** Join the worker domains (idempotent; the pool restarts lazily on
    the next parallel call). Registered [at_exit] so a process never
    exits with workers blocked on the pool condition. *)
