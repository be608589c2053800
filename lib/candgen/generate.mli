(** Clio-style candidate generation.

    For every pair of a source logical association and a target logical
    association connected by at least one attribute correspondence, a
    candidate st tgd is emitted: its body is the source association, its head
    the target association with corresponded positions carrying the matched
    source variables and all remaining target positions carrying fresh
    existential variables. Candidates are de-duplicated up to variable
    renaming ({!Logic.Tgd.equal_up_to_renaming}), keeping the first of each
    duplicate class, and labelled [theta1, theta2, ...] in generation order.

    De-duplication is bucketed by a shape key: the multiset of atom shapes
    (relation plus constant pattern) of the body and of the head. Renaming
    maps an atom only onto one of the same shape, so two candidates equal up
    to renaming always share a key, and comparing a raw candidate only with
    the kept candidates of its own bucket takes exactly the decisions of
    comparing it with every kept candidate. The cost is one shape key per
    raw candidate plus renaming checks inside a bucket, instead of one
    renaming check per pair of candidates.

    Runs in the [candgen] telemetry span and adds, once per call, the
    counters [candgen.pairs] (association pairs with a relevant
    correspondence, i.e. raw candidates), [candgen.duplicates] (raw
    candidates dropped) and [candgen.renaming_checks] (calls to
    {!Logic.Tgd.equal_up_to_renaming}).

    When the correspondences are those induced by a ground-truth mapping
    whose tgds are association-shaped (as in the iBench scenarios), the
    ground truth is a subset of the candidates ([MG ⊆ C]). *)

val generate :
  source : Relational.Schema.t ->
  target : Relational.Schema.t ->
  src_fkeys : Fkey.t list ->
  tgt_fkeys : Fkey.t list ->
  corrs : Correspondence.t list ->
  Logic.Tgd.t list

val correspondences_of_tgd :
  source : Relational.Schema.t ->
  target : Relational.Schema.t ->
  Logic.Tgd.t ->
  Correspondence.t list
(** The correspondences a tgd induces: one per (source position, target
    position) pair sharing a frontier variable. This is how the scenario
    generator derives the metadata evidence from the ground-truth mapping. *)
