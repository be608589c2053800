(** Exact mapping selection by branch and bound.

    Mapping selection is NP-hard (Theorem 1 of the appendix), so this solver
    is exponential in the worst case; it is intended for small candidate sets
    (ground truth for experiments, correctness oracle for tests). The search
    enumerates include/exclude decisions in candidate order, pruning with the
    bound [cost(selected) + w1·Σ_t (1 − maxcover(t))] where [maxcover] is the
    best coverage achievable by the candidates not yet excluded, summed over
    the support groups; the greedy
    solution provides the initial incumbent. *)

val solve : ?max_candidates : int -> Problem.t -> bool array
(** Raises {!Solver_error.Error} when the problem has more than
    [max_candidates] (default 25) candidates — a guard against accidental
    exponential blow-ups, typed so the portfolio and the daemons can skip or
    report it. The returned selection attains the minimum of
    {!Objective.value}. *)
