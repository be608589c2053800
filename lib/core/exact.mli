(** Exact mapping selection by branch and bound.

    Mapping selection is NP-hard (Theorem 1 of the appendix), so this solver
    is exponential in the worst case. It searches each of
    {!Problem.components} on its own, as the sub-problem
    {!Problem.restrict} builds: [F] is a constant plus one term per
    component. A sub-problem's search enumerates include/exclude decisions
    in candidate order, pruning with the bound
    [cost(selected) + w1·Σ_t (1 − maxcover(t))] where [maxcover] is the
    best coverage achievable by the candidates not yet excluded, summed
    over the support groups; greedy's part of the component provides the
    initial incumbent. *)

val solve : ?max_candidates : int -> Problem.t -> bool array
(** Raises {!Solver_error.Error} when a component has more than
    [max_candidates] (default 25) candidates — a guard against accidental
    exponential blow-ups, typed so the portfolio and the daemons can skip or
    report it. The problem itself may have any number of candidates.

    The returned selection attains the minimum of {!Objective.value}, and it
    is the one a single branch and bound over all candidates from the greedy
    incumbent returns: {!Greedy.solve}'s selection when that is optimal, and
    otherwise the first optimum in include-first candidate order. Per
    component that is greedy's part when it is optimal in every component,
    and otherwise the union of each component's first optimum. A component's
    search reaches its first optimum even when greedy's part ties it: a leaf
    equal to greedy's value is taken until the first leaf is taken. *)
