(** Core universal solutions (ten Cate et al., "Laconic schema mappings").

    The core of an instance with labeled nulls is its minimal retract: the
    smallest sub-instance it maps into homomorphically with constants fixed.
    Cores of universal solutions are themselves universal, so coring the
    chased target shrinks [K_M] without losing solutions — the opt-in
    [~core:true] stage of [Core.Problem.make].

    [core] runs iterated proper-endomorphism elimination: while some
    non-ground tuple [t0] admits a homomorphism of its null-connected
    component into the instance minus [t0], replace the component by its
    image. The search is deterministic (tuples tried in ascending order; a
    component's tuples matched in connectivity order, each sharing a null
    with one matched before it), so the returned sub-instance is a pure
    function of its input — the
    [core-solution] fuzz family pins sub-instance containment,
    homomorphic equivalence in both directions, and idempotence. *)

val core : Relational.Instance.t -> Relational.Instance.t
(** The core, as a sub-instance of the input. *)

val is_core : Relational.Instance.t -> bool
(** [true] iff the instance has no proper endomorphism. *)

val hom_exists :
  from:Relational.Instance.t -> into:Relational.Instance.t -> bool
(** [true] iff a homomorphism maps every tuple of [from] onto a tuple of
    [into], fixing constants and mapping labeled nulls anywhere. *)
