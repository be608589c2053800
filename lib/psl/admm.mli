(** MAP inference for HL-MRFs by consensus ADMM.

    This is the standard PSL inference algorithm (Boyd-style consensus ADMM
    with analytic prox steps per potential, as in Bach et al., "Hinge-Loss
    Markov Random Fields and Probabilistic Soft Logic", JMLR 2017): every
    potential and hard constraint keeps a local copy of the variables it
    touches; local copies are updated by a closed-form proximal step, the
    consensus variables by averaging and clipping to [0,1], and scaled duals
    by the consensus gap. Convergence follows Boyd's combined
    absolute/relative criterion on the primal and dual residuals.

    {2 Layout}

    [solve] flattens the model into structure-of-arrays form. Each factor
    (a potential with a non-zero weight and a non-empty expression, or a
    constraint with a non-empty expression; potentials first, then
    constraints, each in insertion order) has one slot in the per-factor
    arrays [kind], [weight], [constant] and [‖a‖²], and owns the slice
    [off.(f) .. off.(f+1) - 1] of the per-copy arrays [var], [coeff] and
    the iterates [x], [y], [v], in its expression's order. An iteration is
    four passes: fill [v = z − y/ρ] for every copy, the prox per factor
    over its slice, the consensus average, then the dual update with the
    residual sums.

    {2 Floating-point order}

    The order of every floating-point operation is part of the contract:
    sums run factor by factor and, within a factor, copy by copy; [y/ρ] is
    a division, never a product with a precomputed reciprocal; and no
    expression is reassociated. The solution, [iterations], [converged]
    and [energy] are therefore fixed bit for bit by the model and the
    options, and a rewrite of the kernel must keep them so. The test
    suite checks this against the record-per-factor kernel this layout
    replaced. *)

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
    Deterministic. Raises [Invalid_argument] if [rho] is not positive and
    finite, if [eps_abs] or [eps_rel] is negative or not finite, or if
    [max_iter] is negative. *)
