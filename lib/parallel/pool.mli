(** A reusable pool of worker domains with deterministic batch operations.

    Workers are spawned once at {!create} and reused across every batch, so
    fanning out many small batches (one per solver restart, per experiment
    seed, per registry entry) costs no domain churn. Work is submitted as
    contiguous index chunks through a [Mutex]/[Condition]-protected queue —
    no dependencies beyond the OCaml 5 stdlib and the (zero-dependency)
    [Telemetry] layer, which observes each batch as a [pool.batch] span and
    counts batches/tasks per logical work item, before the
    inline/pooled split — so counter totals never depend on the pool
    size.

    {2 Inline or fan-out}

    The pool alone decides where a batch runs; callers hand it every batch
    and never branch on the pool size themselves. A batch runs inline on
    the calling domain, in index order, when

    - the pool has one job (it spawned no domains),
    - the caller is itself a pool worker (a nested batch: queueing it
      would deadlock the worker waiting on its own sub-tasks), or
    - the batch has at most one task (a worker would only add a hand-off,
      and the lone task, run on the caller, keeps its own nested batches
      parallel).

    Otherwise its tasks go to the workers.

    {2 Determinism contract}

    Parallel results are bit-identical to sequential ones, for any pool size
    and chunking:

    - tasks must be pure functions of their input (give each task an
      explicit seed via {!Seed.derive} instead of sharing a [Random.State]);
    - every result is stored at its input's index, so completion order is
      irrelevant;
    - when several tasks raise, the exception that propagates is the one the
      sequential run would have hit first (lowest index), making failure
      behaviour reproducible too.

    The inline path is the sequential test oracle the qcheck suite compares
    against. *)

type t

val default_jobs : unit -> int
(** The [PARALLEL_JOBS] environment variable when set (must be a positive
    integer), otherwise [Domain.recommended_domain_count ()]. *)

val create : ?jobs : int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([default_jobs ()] when
    omitted; no domains at all for [jobs <= 1]). Raises [Invalid_argument]
    on [jobs < 1]. *)

val jobs : t -> int

val on_worker : unit -> bool
(** Whether the calling domain is a pool worker, whose batches run inline. *)

val parallel_map : ?chunk : int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map pool f xs] is [Array.map f xs], with elements evaluated on
    the workers. [chunk] elements are grouped per queued task (default: a
    quarter of an even share per worker, at least 1) — chunking affects only
    scheduling granularity, never results. If any [f] raises, outstanding
    chunks are cancelled and the lowest-index exception is re-raised in the
    caller with its backtrace. Raises [Invalid_argument] after {!shutdown},
    whichever path the batch would take. *)

val parallel_map_list : ?chunk : int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** List counterpart of {!parallel_map}. *)

val shutdown : t -> unit
(** Signals the workers to exit and joins them. Idempotent and safe to call
    from several domains at once; subsequent batch submissions raise
    [Invalid_argument], inline ones included. *)

val with_pool : ?jobs : int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    also on exception. *)
