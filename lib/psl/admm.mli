(** MAP inference for HL-MRFs by consensus ADMM.

    This is the standard PSL inference algorithm (Boyd-style consensus ADMM
    with analytic prox steps per potential, as in Bach et al., "Hinge-Loss
    Markov Random Fields and Probabilistic Soft Logic", JMLR 2017): every
    potential and hard constraint keeps a local copy of the variables it
    touches; local copies are updated by a closed-form proximal step, the
    consensus variables by averaging and clipping to [0,1], and scaled duals
    by the consensus gap. Convergence follows Boyd's combined
    absolute/relative criterion on the primal and dual residuals. *)

type options = {
  rho : float;  (** ADMM step size; default 1.0 *)
  max_iter : int;  (** default 10_000 *)
  eps_abs : float;  (** absolute tolerance; default 1e-5 *)
  eps_rel : float;  (** relative tolerance; default 1e-4 *)
}

val default_options : options

type outcome = {
  solution : float array;  (** consensus assignment, inside the box *)
  iterations : int;
  converged : bool;  (** [false] iff stopped by [max_iter] *)
  energy : float;  (** {!Hlmrf.energy} of [solution] *)
}

val solve : ?options : options -> Hlmrf.t -> outcome
(** Minimises the HL-MRF energy over the box subject to its hard
    constraints, starting from all-zero consensus and duals.
    Deterministic. *)
