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
    process globals — the evaluation cache and the worker pool — bundled
    into one value threaded explicitly through the experiments. A [Ctx.t]
    is immutable (no mid-run cache swaps or pool resizes), and its
    shutdown is idempotent and safe to race. *)
module Ctx : sig
  type t

  val create : ?cache : Cache.t -> ?jobs : int -> unit -> t
  (** A fresh context and its pool of [jobs] workers ([jobs] defaults to
      {!Parallel.Pool.default_jobs}; one job spawns no domain). Raises
      [Invalid_argument] on [jobs < 1]. *)

  val cache : t -> Cache.t option

  val shutdown : t -> unit
  (** Joins the pool's workers ({!Parallel.Pool.shutdown}); later
      {!parallel_map} calls on the context raise [Invalid_argument]. *)

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
(** [List.map f xs] as one batch on the context's pool, one task per
    element; results keep list order and are bit-identical to the
    sequential map for pure [f]. The pool decides whether the batch fans
    out or runs inline ({!Parallel.Pool.parallel_map}). *)

val fmt_f : float -> string
(** Two decimals. *)

val fmt_ms : float -> string
(** Milliseconds with one decimal. *)
