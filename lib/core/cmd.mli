(** CMD — collective mapping discovery, the paper's approach.

    The selection problem is translated into a ground probabilistic-soft-logic
    program over decision atoms [in(θ) ∈ [0,1]] (one per candidate) and
    auxiliary atoms [explained(g) ∈ [0,1]], one per support group of the
    problem's lifted view ([Problem.t.group_size]): the coverable target
    tuples whose [(θ, covers(θ,t))] pairs are equal (by exact degree) share
    one atom [g] of size [k_g]:

    - soft, weight [k_g·w1]: [explained(g)] — a linear loss [1 − y_g], the
      [k_g] per-tuple losses [w1·(1 − y_t)] as one;
    - hard: [explained(g) ≤ Σ_θ covers(θ,t)·in(θ)] — the Łukasiewicz
      disjunction of the candidates' support;
    - soft, weight [w2·errors(θ) + w3·size(θ)]: [¬in(θ)] — a linear loss
      [cost_θ · x_θ].

    For a fixed [x] each per-tuple [y_t] would be set alone to
    [min(1, Σ covers·x)], the same value for every tuple of a group, so the
    lifted model's minimum over [in(θ)] is the per-tuple model's.

    MAP inference on the resulting hinge-loss MRF (consensus ADMM,
    {!Psl.Admm}) yields fractional [in(θ)] values; a discrete mapping is
    recovered by conditional rounding — candidates are visited in decreasing
    fractional value and kept iff they improve the exact discrete objective —
    followed by a single-flip repair pass. Certainly-unexplained tuples
    form no group, so they get no atom: they are the problem's constant.

    The LP relaxation uses the capped-sum semantics of Łukasiewicz
    disjunction for [explains]; the rounding and all reported objective
    values use the exact [max] semantics of Eq. 9. *)

type rounding =
  | Conditional  (** greedy acceptance in fractional order (default) *)
  | Threshold of float  (** keep candidates with [in(θ) ≥ τ] *)

type options = {
  admm : Psl.Admm.options;
  rounding : rounding;
  repair : bool;  (** run the single-flip repair pass (default true) *)
  squared : bool;
      (** square the soft potentials, PSL's default flavour; the objective
          relaxed is then the squared variant of Eq. 9 (default false) *)
}

val default_options : options

type result = {
  selection : bool array;
  objective : Util.Frac.t;  (** exact objective of [selection] *)
  fractional : float array;  (** the MAP values of [in(θ)], per candidate *)
  admm : Psl.Admm.outcome;
  num_vars : int;
      (** variables of the ground model: the candidates and one
          explained-atom per distinct support *)
  num_potentials : int;
  num_constraints : int;
}

val solve : ?options : options -> Problem.t -> result
(** Ground, MAP inference, rounding and repair, as above.
    Deterministic in the problem. *)

val build_model : ?squared : bool -> Problem.t -> Psl.Hlmrf.t
(** The ground HL-MRF of a problem, with variables [0..m-1] the candidates
    and [m..m+G-1] the explained-atoms, one per support group, numbered as
    the problem numbers its groups (in the order of their first tuple).
    Each support constraint lists its candidates in descending order. Squared
    flavour: the losses are [k_g·w1·(1 − y_g)²] and [cost_θ·x_θ²].
    Deterministic in the problem. Exposed for testing and for the scaling
    benchmarks. *)
