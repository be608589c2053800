(** Incremental (delta) evaluation of the selection objective.

    The naive evaluator ([Objective.value]) walks every candidate and every
    cover list on each call, so a solver probing single-candidate flips pays
    O(m · |covers|) per probe. This module maintains a mutable evaluation
    state from which the objective of the current selection — and the exact
    effect of any single flip — is available in O(|covers(c)| · log k) per
    flip, where [covers(c)] are the support groups candidate [c] covers
    (the problem's lifted view, [Problem.t.group_covers]) and k bounds the
    number of selected candidates covering one group.

    Per support group the state keeps the multiset of coverage degrees
    contributed by the currently selected candidates; [explains(M, t)] of
    each of the group's tuples is the multiset maximum, so committing or
    probing a flip only touches the groups the flipped candidate covers, a
    group of [k] tuples weighing [k]. Running accumulators track the
    covered mass and the summed candidate cost.

    All arithmetic is exact [Util.Frac] rationals: every value produced here
    is bit-identical to the naive evaluator's, which the qcheck differential
    suite in [test/test_incremental.ml] enforces, and to a per-tuple
    evaluation, which its [lifted] group checks. *)

type t

val create : Problem.t -> bool array -> t
(** [create p sel] builds the evaluation state for selection [sel] (the
    array is copied, not aliased). Cost: one naive-evaluation sweep. *)

val flip : t -> int -> unit
(** [flip st c] toggles candidate [c] in the selection, updating the state
    in O(|covers(c)| · log k). *)

val flip_delta : t -> int -> Util.Frac.t
(** [flip_delta st c] is [F(sel with c flipped) − F(sel)] — negative when
    the flip improves (decreases) the objective — without committing the
    flip. Same per-call cost as [flip]. *)

val value : t -> Util.Frac.t
(** The objective of the current selection, O(1). *)

val is_selected : t -> int -> bool

val selection : t -> bool array
(** A fresh copy of the current selection mask. *)

val problem : t -> Problem.t
