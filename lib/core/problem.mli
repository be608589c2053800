(** A mapping-selection problem instance, precomputed for fast objective
    evaluation.

    Construction chases the source instance once per candidate and computes
    the Eq. 9 coverage/error statistics ({!Cover.analyze}); afterwards every
    objective evaluation is a cheap pass over the precomputed degrees. The
    weighted objective of the appendix is supported through the positive
    integer weights [(w1, w2, w3)] on coverage, errors and size; the paper's
    Eq. 9 is [(1, 1, 1)].

    {b The lifted view.} A tuple's term [1 − explains(M, t)] depends on [t]
    only through its support: the candidates that cover it and their exact
    degrees. The build groups the target tuples by support once, and every
    solver and the objective read the groups: a group of [k] tuples counts
    [k] times. Tuples with an empty support (Section III-C's certainly
    unexplained tuples) form no group; they add the constant
    [w1 · uncoverable] to every selection's objective. [tuples] and
    [covers] stay for what is tuple-level: {!digest}, the metrics and the
    fuzz oracles.

    {b Content and key.} {!digest} hashes the whole problem; {!key} is the
    same value, computed once per problem and, for a build through a
    cache, looked up under the build's inputs, so a repeated build does not
    hash the problem again. *)

type weights = {
  w_unexplained : int;  (** w1: per unit of unexplained target tuple *)
  w_errors : int;  (** w2: per error tuple *)
  w_size : int;  (** w3: per unit of tgd size *)
}

val default_weights : weights
(** [(1, 1, 1)] — the unweighted objective of Eq. 9. *)

type t = private {
  candidates : Logic.Tgd.t array;
  stats : Cover.tgd_stats array;  (** aligned with [candidates] *)
  tuples : Relational.Tuple.t array;  (** the target tuples of [J] *)
  covers : (int * Util.Frac.t) array array;
      (** per candidate: (tuple index, coverage degree), positive degrees
          only, in its statistics' [rows]' order *)
  group_size : int array;
      (** per support group: its multiplicity [k], the number of tuples
          sharing the support; groups are numbered in the order of their
          first tuple *)
  group_covers : (int * Util.Frac.t) array array;
      (** per candidate: (group, coverage degree), groups ascending — the
          lifted [covers] *)
  uncoverable : int;
      (** tuples that no candidate covers, so
          [uncoverable + Σ group_size = |J|] *)
  cand_cost : Util.Frac.t array;
      (** per candidate: [w2·errors + w3·size] — its selection cost,
          computed in checked arithmetic *)
  weights : weights;
  memo : string option Atomic.t;
      (** {!key} once known. An [Atomic], not a [Lazy], because domains
          of one pool may ask for the key of a shared problem at once. The
          type is private so that no copy of a problem shares its memo. *)
}

val make :
  ?weights : weights ->
  ?semantics : Cover.semantics ->
  ?core : bool ->
  ?cache : Cache.t ->
  source : Relational.Instance.t ->
  j : Relational.Instance.t ->
  Logic.Tgd.t list ->
  t
(** Builds the problem from a data example and candidate list. [semantics]
    selects the coverage semantics (default the paper's corroborated Eq. 9;
    the others are ablation variants). [core] (default [false]) shrinks each
    candidate's chased target to its core universal solution before the
    coverage fold ({!Cover.Session.stats}) — fewer produced tuples and
    errors, hence a different (not bit-identical) problem, cached under
    core-flagged keys. With [cache], each candidate's coverage statistics
    are memoized content-addressed (bit-identical to the uncached
    analysis; the cached stats are weight-independent, so any weights share
    the entries), and so is {!key}, under the weights, [j] and each
    candidate's statistics key in list order ({!Cache.problem_key}).
    Raises [Invalid_argument] on non-positive weights and
    [Util.Frac.Overflow] as {!of_stats} does. *)

val digest : t -> string
(** A content digest of the full problem (weights, target tuples, per
    candidate: tgd, cost, coverage degrees in [rows]' order, error
    tuples), hashed afresh on every call. It is the reference {!key} must
    equal, and what the bit-identity checks compare between cached and
    uncached builds. *)

val key : t -> string
(** [digest t], computed at most once per problem (a build through a cache
    reads it from the cache) — the key under which {!Cache.selection}
    memoizes solver results and the daemon's wire [digest]. Safe to call
    from several domains at once. *)

val of_stats :
  ?weights : weights ->
  j : Relational.Instance.t ->
  Cover.tgd_stats array ->
  t
(** Builds the problem from precomputed statistics (e.g. to avoid re-chasing
    when several solvers share one analysis). The statistics must have been
    computed against this [j]: each candidate's coverage entries are its
    [Cover.tgd_stats.rows], row numbers into [Relational.Instance.tuples j],
    read as they are. Groups the tuples by support (the lifted view above).
    Raises [Invalid_argument] on non-positive weights and
    [Util.Frac.Overflow] when a candidate cost does not fit in native
    integers. *)

val with_weights : t -> weights -> t
(** The same problem under different weights — the coverage degrees are
    weight-independent, so only the candidate costs are recomputed, and
    {!key} is computed afresh. Raises
    [Invalid_argument] on non-positive weights and [Util.Frac.Overflow] as
    {!of_stats} does. *)

val components : t -> int array array
(** The candidates linked by covering a common support group, each
    component's candidates ascending, the components in the order of their
    least candidate; computed on every call. A group's coverers lie in one
    component and costs are per candidate, so
    [F(M) = w1·uncoverable + Σ_c F_c(M ∩ c)], [F_c] the objective of
    [restrict p c]. *)

val restrict : t -> int array -> t
(** [restrict p cs]: the sub-problem of the candidates [cs] (ascending),
    its candidate [k] being [cs.(k)]. Its [tuples] are those the candidates
    cover, in [p]'s order, grouped as {!of_stats} groups them, so
    [uncoverable = 0]; its statistics are re-indexed and its weights are
    [p]'s. *)

val num_candidates : t -> int

val num_tuples : t -> int

val num_groups : t -> int

val selection_of_indices : t -> int list -> bool array

val indices_of_selection : bool array -> int list
