(** The oracle library: every mechanically checkable invariant the paper's
    appendix (and the engine's own contracts) pin down, as named checks over
    fuzz cases.

    The ten families:

    - [eq4-eq9] — on full-tgd scenarios the Eq. 4 bitset fast path
      ({!Core.Full}) and the general Eq. 9 evaluator agree on every probed
      selection, and their exact solvers find equal optima;
    - [incremental] — {!Core.Incremental} matches the naive
      {!Core.Objective} after every flip of a random flip sequence, every
      probed [flip_delta] is exact, and the internal state passes
      {!Core.Incremental.self_check};
    - [solver-order] — [F(exact) <= F(local-search) <= F(greedy) <= F({})]
      and [F(exact) <= F(anneal) <= F({})] on small problems;
    - [setcover] — the Theorem 1 closed form
      [F(M) = (m+1)(|U| - |∪ R_i|) + 2|M|] equals the Eq. 9 evaluator on
      the reduced problem for every probed selection;
    - [cq-index] — {!Logic.Cq.answers_indexed} (and the indexed extension
      evaluator) agree with the unindexed evaluator on the case's tgd bodies
      and heads;
    - [chase-determinism] — the chase is invariant under permutation of the
      source tuples, with and without a prebuilt index, passes
      {!Chase.check_result}, and the objective is invariant under
      permutation of the candidate list;
    - [cache-identity] — building the problem through a private
      {!Cache.t} (cold and warm) and solving through it yields problems
      and selections byte-identical to the uncached pipeline, and a warm
      rebuild recomputes nothing;
    - [core-solution] — the core of the chased target is a sub-instance
      retaining every ground tuple, homomorphically equivalent to it in
      both directions, idempotent, and coring never grows the produced
      [K_M];
    - [portfolio] — a sequential {!Core.Portfolio} race is deterministic
      in [(problem, seed)] and never beaten by an individually-run roster
      member (CMD, greedy);
    - [algebra] — implication and containment verdicts hold on the case's
      own data, minimisation keeps a tgd's meaning, the composed chase is
      sound against the hop-by-hop one with identical ground facts (and
      exact on full intermediate hops), and three-hop chains satisfy
      {!Algebra.associative}.

    Checks are deterministic functions of the case: auxiliary randomness
    (probed selections, flip sequences, permutations) is derived from the
    case seed, so a failing case replays identically from the corpus. *)

type ctx
(** A case plus its lazily shared precomputation ({!Core.Problem.make}
    chases once per candidate; the oracles share one problem per case). *)

type verdict =
  | Pass
  | Skip  (** the oracle does not apply to this case shape *)
  | Fail of string  (** invariant violated; the payload describes how *)

type t = {
  name : string;
  doc : string;
  check : ctx -> verdict;
}

val all : t list
(** The ten families, in the order above. *)

val names : string list

val find : string -> t option

val run : ?cache : Cache.t -> t -> Case.t -> verdict
(** [check] on a fresh context, with exceptions converted to [Fail].
    [cache], when given, serves the context's shared problem construction;
    verdicts are identical with or without it. *)

val is_failure : ?cache : Cache.t -> t -> Case.t -> bool
(** The shrinking predicate: does the oracle fail (or raise) on this case? *)

val faults : (string * t) list
(** Deliberately broken oracle variants, keyed by fault name, for exercising
    the shrinking and corpus pipeline end to end: [flip-delta] perturbs the
    expected flip delta of candidates covering at least two tuples;
    [closed-form] drops the [+1] from the SET COVER closed form. Each is a
    drop-in replacement for the real oracle of the same [t.name]. *)
