(** Shared plumbing for the experiments: the solver context, scenario →
    problem conversion, solver invocation and metric aggregation. *)

type solver =
  | Cmd_solver  (** the paper's approach *)
  | Greedy_solver  (** the non-collective baseline *)
  | All_candidates  (** select everything Clio proposed *)
  | Exact_solver  (** branch and bound (small problems only) *)
  | Portfolio_solver  (** {!Core.Portfolio} race over the registry roster *)

val solver_name : solver -> string
(** Display label ([CMD], [greedy], ...). *)

val registry_name : solver -> string
(** The {!Core.Solver.find} name of the variant. *)

(** The solver context: every run-wide resource the suite used to keep in
    process globals — the evaluation cache, the parallelism degree and the
    shared worker pool — bundled into one value
    threaded explicitly through the experiments. A [Ctx.t] is immutable in
    its configuration (no mid-run cache swaps or pool resizes; the old
    [set_jobs] could shut a pool down under a running sweep), and its
    shutdown is idempotent and race-free. *)
module Ctx : sig
  type t

  val create : ?cache : Cache.t -> ?jobs : int -> unit -> t
  (** A fresh context. [jobs] defaults to {!Parallel.Pool.default_jobs}
      ([PARALLEL_JOBS], else the recommended domain count); the pool itself
      is created lazily on first {!pool} call. Raises [Invalid_argument]
      on [jobs < 1]. *)

  val cache : t -> Cache.t option

  val jobs : t -> int

  val pool : t -> Parallel.Pool.t
  (** The context's shared worker pool, created on first use. Thread-safe.
      Raises [Invalid_argument] after {!shutdown}. *)

  val shutdown : t -> unit
  (** Joins the pool's workers (if one was created) and closes the context.
      Idempotent and safe to race: the pool is detached under a lock, so
      exactly one caller joins it and later {!pool} calls fail instead of
      resurrecting workers. *)

  val with_ctx : ?cache : Cache.t -> ?jobs : int -> (t -> 'a) -> 'a
  (** [create], run, [shutdown] — even on exceptions. *)
end

val problem_of_scenario : Ctx.t -> Ibench.Scenario.t -> Core.Problem.t
(** Chases the source instance per candidate and precomputes degrees,
    memoized through the context's cache when one is set. The noise sweeps
    re-solve near-identical scenarios per seed, so warm runs skip most
    chases. *)

type outcome = {
  selection : bool array;
  objective : Util.Frac.t;
  mapping : Metrics.scores;  (** selected tgds vs MG *)
  tuples : Metrics.scores;  (** data quality of the selection *)
  runtime_ms : float;
}

val run_solver :
  Ctx.t -> solver -> Ibench.Scenario.t -> Core.Problem.t -> outcome
(** Runs one solver through {!Core.Solver.solve} under the context's cache;
    [runtime_ms] covers only the solve, not the precomputation. A repeat
    of a (solver, problem) pair under a cached context is answered from
    the cache's selection tier, under the same key any other
    {!Core.Solver.solve} caller uses. May raise {!Core.Solver_error.Error}
    (e.g. {!Exact_solver} on oversized problems). *)

val noise_config :
  ?rows : int ->
  ?primitives : (Ibench.Primitive.kind * int) list ->
  seed : int ->
  pi_corresp : int ->
  pi_errors : int ->
  pi_unexplained : int ->
  unit ->
  Ibench.Config.t
(** The standard experiment configuration: all seven primitives once, 8 rows
    per relation, unless overridden. *)

val parallel_map : Ctx.t -> ('a -> 'b) -> 'a list -> 'b list
(** [List.map f xs] fanned out over the context's pool, one task per
    element; results keep list order and are bit-identical to the
    sequential map for pure [f]. Runs inline when [Ctx.jobs ctx <= 1] or
    when already on a pool worker (nested fan-out), without spawning the
    shared pool. *)

val fmt_f : float -> string
(** Two decimals. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal. *)

val average : (int -> Metrics.scores) -> seeds : int list -> Metrics.scores
(** Component-wise mean over seeds. *)
