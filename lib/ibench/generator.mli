(** Scenario generation (Section VI-A of the paper and Section II of the
    appendix).

    [generate config] builds, deterministically from [config.seed]:

    + schemas and the ground-truth mapping MG from the configured iBench
      primitive instances;
    + a random source instance [I] (foreign keys sampled from referenced
      columns, other attributes from small per-column pools);
    + the clean target instance as the chase of [I] under MG with labeled
      nulls replaced by fresh constants;
    + the metadata evidence: the correspondences induced by MG plus, for
      [pi_corresp]% of the target relations, random correspondences from an
      unrelated source relation;
    + the candidate set [C] via Clio-style generation from the evidence
      (MG ⊆ C holds by construction);
    + the data noise: [pi_errors]% of the potential non-certain error tuples
      deleted from [J], and [pi_unexplained]% of the potential non-certain
      unexplained tuples added to [J]. *)

val generate : Config.t -> Scenario.t
(** Raises [Invalid_argument] if the configuration fails
    {!Config.validate}. *)

val shuffle : Random.State.t -> 'a list -> 'a list
(** A Fisher–Yates permutation of the list, drawing from [rng]: the one
    shuffle behind every seeded generator and oracle, so equal seeds give
    equal orders everywhere. *)

val select_pct : Random.State.t -> int -> 'a list -> 'a list
(** [select_pct rng pct xs] uniformly selects [round (pct·|xs|/100)] elements
    (the first elements of a {!shuffle}). *)
