(** Coverage and error degrees for st tgds — the Eq. 9 semantics.

    Given the target instance [J] of a data example and the chase triggers of
    a candidate tgd [θ], this module computes:

    - [covers(θ, t)] for every [t ∈ J]: the degree in [0,1] to which [θ]
      explains [t]. It is the maximum, over trigger groups of [θ] and
      consistent assignments [h] of the group's nulls to constants, of the
      fraction of [t]'s positions accounted for. A position is accounted for
      when the chase tuple carries an equal constant there, or carries a null
      [n] with [h n = t.(pos)] that is {e corroborated}: [n] also occurs in a
      different tuple of the same trigger group whose image under [h] lies in
      [J]. Corroboration is what distinguishes a join-carried value from an
      arbitrary placeholder; it reproduces the appendix's degrees (2/3 for a
      lone task tuple, 3/3 once a joined org tuple lands in [J]).

    - [error(θ, t')] for every trigger tuple [t']: 1 when no assignment of
      [t']'s nulls maps it onto a tuple of [J], else 0 (the appendix's
      [creates]).

    [explains(M, t)] for a mapping [M] is the maximum of [covers(θ, t)] over
    [θ ∈ M]; a problem build takes it per support group
    ([Core.Problem]). *)

(** How null positions of a matched chase tuple count towards coverage.
    [Corroborated] is the paper's Eq. 9 semantics and the default; the other
    two are ablation variants (experiment E11): [Strict] never credits an
    invented value, [Generous] always does. Only [Corroborated] reproduces
    the appendix's worked numbers. *)
type semantics =
  | Corroborated
      (** a null counts iff it also occurs in a sibling tuple of the trigger
          group whose image lies in [J] *)
  | Strict  (** nulls never count *)
  | Generous  (** a matched null always counts *)

type tgd_stats = {
  index : int;  (** position of the tgd in the candidate list *)
  tgd : Logic.Tgd.t;
  covers : Util.Frac.t Relational.Tuple.Map.t;
      (** The degrees of [rows] as a map, kept for the traced path of the
          pipeline benchmark only: {!stats_of_result} fills it
          ([Tuple.Map.of_list (degrees ~j s)]), while {!Session.stats} and
          {!analyze}, the fold every selection runs, leave it empty. Read
          {!degrees} instead. *)
  rows : (int * Util.Frac.t) array;
      (** The coverage degrees: per target tuple with a positive degree, its
          row number in [Relational.Instance.tuples j] (relations in
          ascending name order, each relation's tuples descending) and its
          best degree, in tuple order ([Relational.Tuple.compare]). A
          problem build reads the numbers here, and {!degrees} turns them
          back into tuples. *)
  error_tuples : Relational.Tuple.t list;
      (** trigger tuples with error 1, with multiplicity across triggers *)
  produced : int;  (** total trigger tuples produced (with multiplicity) *)
  size : int;  (** [Tgd.size] of the tgd, cached *)
}

val degrees :
  j : Relational.Instance.t -> tgd_stats -> (Relational.Tuple.t * Util.Frac.t) list
(** [degrees ~j s]: [s.rows] with each row number replaced by its tuple of
    [j], the instance [s] was folded against — every tuple with a positive
    degree, in tuple order. Lists [Instance.tuples j] per call. *)

val covers : j : Relational.Instance.t -> tgd_stats -> Relational.Tuple.t -> Util.Frac.t
(** Coverage degree of one target tuple (0 if absent), from {!degrees}. *)

val error_count : tgd_stats -> int
(** Number of error tuples, i.e. [Σ_{t'} error(θ, t')]. *)

val stats_of_result :
  ?semantics : semantics ->
  ?core : bool ->
  j : Relational.Instance.t ->
  index : int ->
  Logic.Tgd.t ->
  Chase.result ->
  tgd_stats
(** Statistics of one tgd from its chase result. With [~core:true] the
    chased target is first shrunk to its core universal solution
    ({!Chase.Core_solution}): trigger tuples retracted away by the core are
    dropped before coverage and errors are computed, so [produced] counts
    the cored [K_M]. The default ([false]) folds the result's triggers,
    bit-identical to the historical pipeline. The triggers must all belong
    to the given tgd. Builds a {!Session}-style index over [j] for this one
    call: each relation a trigger tuple reaches is indexed once, in time
    and space linear in its size, and then matches are found by
    posting-list probes (see {!Session}). Analysing several candidates
    against one [j] through {!analyze} or {!Session} builds that index only
    once. Fills [covers] with the degrees of {!degrees}, which
    {!Session.stats} does not. *)

val analyze :
  ?semantics : semantics ->
  ?core : bool ->
  source : Relational.Instance.t ->
  j : Relational.Instance.t ->
  Logic.Tgd.t list ->
  tgd_stats array
(** Chases [source] with each candidate separately and computes statistics
    for each; [analyze] is the precomputation step of the selection
    pipeline, run through one {!Session}. [I] is indexed once and each
    candidate is fired over that index with {!Chase.fire}, and [~core:true]
    applies the {!stats_of_result} core stage per candidate. [J] is indexed
    once for all candidates, so beyond the chase the cost per candidate is
    the posting-list probes its trigger groups make, not [|J|] per chase
    tuple. Each result's [covers] is empty, as from {!Session.stats}.
    Recorded as the [cover.analyze] span. *)

(** One analysis of many candidates against one data example [(I, J)]: the
    chase fixture over [I] and the index over [J], each built on first use
    and shared by every candidate. {!analyze} is a session run over a
    candidate list; [Core.Problem.make ~cache] runs one so that candidates
    whose statistics are cached never build either half.

    The index keeps, per relation of [J], its tuples in canonical order and
    posting lists keyed by [(position, value)], a position's lists built
    on its first probe. A relation is indexed on its first probe, so the
    index costs time and space linear in the relations the candidates
    reach.

    The chase half fires each candidate over one index of [I]
    ({!Chase.fire}) and builds no chased instance: the fold reads the
    triggers only, and [~core:true] builds the instance the core stage
    shrinks.

    A trigger group's configurations are enumerated with the tuples that
    hold a constant decided first. Each tuple is probed under the current
    assignment, by the posting list of its first position holding a
    constant or an already bound null, and scans the whole relation only
    when it has neither. A tuple whose nulls are all unbound and held by
    no tuple decided later is isolated: no branch on it can change another
    tuple's count, and its own count is that of "only it matched" (its
    constants, or its arity under [Generous]). It is not branched on; each
    row it matches is raised to that count once per group. A chase tuple
    is an error tuple exactly when no row matches it on its own.

    A group's enumeration state is laid out by the group's layout: each
    tuple's relation and arity, which positions hold constants, and the
    nulls numbered by first occurrence. Over a null-free source every
    trigger of one candidate has the same layout, so a fold keeps the last
    group it laid out and reuses it for the next trigger group of the same
    layout, resetting only the per-trigger state; a different layout
    (frontier nulls from the source, or the core stage's filtered groups)
    is laid out anew.

    The index is mutated as it fills and as each candidate is folded: a
    session belongs to one domain. Telemetry counts
    [cover.relations_indexed] per session, and [cover.rows_probed] (rows
    the fold tried to bind, whether in a branch or in an isolated tuple's
    one pass) and [cover.configurations] (leaves of the enumeration, with
    isolated tuples not branched on) per candidate fold, so the latter two
    totals do not depend on the pool size, and [cover.layouts] (group
    layouts built, at most one per trigger group) per candidate fold. *)
module Session : sig
  type t

  val make : source : Relational.Instance.t -> j : Relational.Instance.t -> t
  (** Touches neither instance: the chase fixture and each relation's index
      are built when first needed. *)

  val chase : t -> Logic.Tgd.t -> Chase.Trigger.t list
  (** The candidate's firings over [I] ({!Chase.fire}) on the session's
      shared fixture, the triggers {!analyze} derives statistics from. No
      chased instance is built. *)

  val stats :
    ?semantics : semantics ->
    ?core : bool ->
    t ->
    index : int ->
    Logic.Tgd.t ->
    Chase.Trigger.t list ->
    tgd_stats
  (** {!stats_of_result} against the session's shared index over [J], from
      the candidate's triggers, but with [covers] empty: its degrees are
      [rows] only. Only [~core:true] builds the chased instance
      ({!Chase.solution_of}), which the core stage shrinks. *)
end

val matches : pattern : Relational.Tuple.t -> Relational.Tuple.t -> bool
(** [matches ~pattern t] is [true] iff [t] is an image of [pattern] under
    some assignment of [pattern]'s nulls (same relation, equal constants
    positionwise, nulls bound consistently within the tuple). [t] itself may
    contain nulls; a pattern null may map onto them. *)

val maps_into : Relational.Tuple.t -> Relational.Instance.t -> bool
(** [maps_into pattern inst]: some tuple of [inst] matches [pattern]. *)
