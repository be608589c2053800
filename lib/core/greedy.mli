(** Greedy mapping selection — the non-collective baseline.

    Forward pass: repeatedly add the candidate with the largest strict
    decrease of the objective. Backward pass: repeatedly drop any selected
    candidate whose removal decreases the objective. Terminates at a local
    optimum w.r.t. single additions/removals. *)

val solve : Problem.t -> bool array
