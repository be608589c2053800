(** Greedy mapping selection — the non-collective baseline.

    Forward pass: repeatedly add the candidate with the largest strict
    decrease of the objective. Backward pass: repeatedly drop any selected
    candidate whose removal decreases the objective. Terminates at a local
    optimum w.r.t. single additions/removals. *)

val solve : Problem.t -> bool array

val marginal_gain :
  Problem.t -> best : Util.Frac.t array -> int -> Util.Frac.t
(** [marginal_gain p ~best c]: the objective decrease obtained by adding
    candidate [c] when the current coverage of each support group is [best]
    ({!Objective.group_coverage}; positive = improvement). Exposed for
    testing and reuse. *)
