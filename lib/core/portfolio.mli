(** Portfolio racing: run a roster of solvers (concurrently, when a pool is
    given) and return the first provably good result.

    A finisher is a {e prover} when its exact-rational objective meets
    {!Objective.lower_bound} — optimality-or-dominance — or when the entry
    is flagged exact (branch and bound proves by construction). Once a
    prover finishes, roster entries with a larger index skip before starting
    (cooperative cancellation); entries that raise {!Solver_error.Error}
    (e.g. exact on an oversized component) drop out deterministically.

    The raced result is deterministic in [(problem, seed)] for any pool
    size: the winner is the least-index prover, or — when no entry proves —
    the best objective with lowest-index tie-breaking, and a skipped entry
    always has a larger index than the prover that caused the skip.

    The work done is not. Without a pool, or when the pool runs the batch
    inline ({!Parallel.Pool.parallel_map}), the roster runs in index order
    under the same skip rule. On the workers, which entries finish before
    a prover lands depends on timing, so a pooled race's solver counters
    (e.g. [incremental.flips]) vary from run to run and are exempt from
    the rule that counter totals do not depend on the pool size. *)

type runner = {
  r_name : string;
  r_solve : ?pool : Parallel.Pool.t -> ?seed : int -> Problem.t -> bool array;
  r_exact : bool;  (** a finisher of this entry is optimal by construction *)
}

type race_result = {
  selection : bool array;
  winner : string;  (** roster name of the winning entry *)
  proved : bool;  (** the winner carried an optimality certificate *)
}

val race :
  roster : runner list ->
  ?pool : Parallel.Pool.t ->
  ?seed : int ->
  Problem.t ->
  race_result
(** Raises [Invalid_argument] on an empty roster and
    {!Solver_error.Error} when every entry refuses the problem. *)
