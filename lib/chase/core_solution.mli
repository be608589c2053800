(** Core universal solutions (ten Cate et al., "Laconic schema mappings").

    The core of an instance with labeled nulls is its minimal retract: the
    smallest sub-instance it maps into homomorphically with constants fixed.
    Cores of universal solutions are themselves universal, so coring the
    chased target shrinks [K_M] without losing solutions — the opt-in
    [~core:true] stage of [Core.Problem.make].

    [core] runs iterated proper-endomorphism elimination: while some
    non-ground tuple [t0] admits a homomorphism of its null-connected
    component into the instance minus [t0], replace the component by its
    image. A component's homomorphisms are the answers of a boolean
    conjunctive query (its tuples as atoms, each null a variable named
    after its label) compiled into a {!Logic.Cq.Plan}, whose join order
    is {!Logic.Cq.order_atoms}, and run over a {!Relational.Index} of the
    target. The search is deterministic (the first [t0] in
    {!Relational.Instance.tuples} order whose component has an answer,
    retracted onto the plan's first answer), so the returned sub-instance
    is a pure function of its input; it is unique up to isomorphism, as
    every core of an instance is. The [core-solution] fuzz family pins
    sub-instance containment, homomorphic equivalence in both directions,
    and idempotence. *)

val core : Relational.Instance.t -> Relational.Instance.t
(** The core, as a sub-instance of the input. *)

val is_core : Relational.Instance.t -> bool
(** [true] iff the instance has no proper endomorphism. *)

val hom_exists :
  from:Relational.Instance.t -> into:Relational.Instance.t -> bool
(** [true] iff a homomorphism maps every tuple of [from] onto a tuple of
    [into], fixing constants and mapping labeled nulls anywhere. *)
