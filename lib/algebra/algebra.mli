(** The mapping algebra: composition and containment over st-tgd
    mappings.

    A mapping here is a finite set of st tgds. The algebra treats a set as
    the specification of the binary relation \{(I, J) | (I, J) ⊨ Σ\} and
    provides two classical operators over such relations:

    - {!compose} unfolds a two-hop program [M12 ; M23] over the
      intermediate schema into a single S→U tgd set, verifying each
      unfolding with a two-hop chase ({!Chase.Implication.implied_through})
      and pruning with tgd minimisation;
    - {!contained_in} / {!equivalent} lift per-tgd implication to whole
      mappings.

    Everything is chase-based; containment is exact on the st-tgd fragment
    the selection engine uses, and {!compose} is exact only when its first
    hop is full and [limit] cuts no unfolding, and otherwise a sound
    under-approximation. *)

open Relational
open Logic

val chase_through : Instance.t -> Tgd.t list list -> Instance.t
(** [chase_through i hops] chases [i] with each hop in turn. A single null
    source, seeded above every null already present in [i], threads through
    all hops so labels never collide between rounds — the hop-by-hop
    counterpart of chasing once with a composed mapping. *)

val compose : ?limit : int -> Tgd.t list -> Tgd.t list -> Tgd.t list
(** [compose m12 m23] is a tgd set over source and final schemas capturing
    the sequential application of [m12] then [m23], obtained by resolution
    unfolding of every [m23] body atom against [m12] heads. Unfoldings
    that would equate existentials of distinct triggers are syntactically
    generated but rejected by the two-hop chase check, so every returned
    tgd is sound; [limit] (default 64) bounds the number of unfoldings
    explored per [m23] tgd. Results are shrunk with
    {!Chase.Implication.minimize_tgd} and pruned with
    {!Chase.Implication.minimize}.

    The result is exact — logically equivalent to the sequential
    application — when [m12] is full and [limit] does not cut an
    unfolding short; a cut result is a sound under-approximation. With
    existentials in [m12] heads it is a sound under-approximation: an
    [m12] null consumed by two [m23] triggers yields facts correlated
    through a shared null, which no first-order tgd set expresses
    (composition then needs second-order tgds, Fagin et al. 2005). Ground
    consequences of the two hops are still captured, since each arises
    from a single unfoldable derivation tree. An under-approximation used
    as the first hop of a further composition can lose ground
    consequences of the whole chain too, so [compose (compose m1 m2) m3]
    and [compose m1 (compose m2 m3)] are guaranteed equivalent only when
    [m1] and [m2] are full and no unfolding is cut. *)

val compose_all : ?limit : int -> Tgd.t list list -> Tgd.t list
(** Left fold of {!compose} over a hop list; [[]] composes to [[]]. *)

val contained_in : Tgd.t list -> Tgd.t list -> bool
(** [contained_in m m'] is [true] iff every (I, J) pair satisfying [m] also
    satisfies [m'] — i.e. [m] implies each tgd of [m']; [m] is the stronger
    (more constraining) mapping. *)

val equivalent : Tgd.t list -> Tgd.t list -> bool
(** Mutual containment: the two tgd sets specify the same relation. *)

val associative : Tgd.t list -> Tgd.t list -> Tgd.t list -> bool
(** [associative m1 m2 m3] checks the associativity {!compose} promises
    for the chain [m1 ; m2 ; m3]. When [m1] and [m2] are full, both
    bracketings, unfolded with no [limit], must be {!equivalent}.
    Otherwise every tgd of either bracketing must be implied by chasing
    through the three hops ({!Chase.Implication.implied_through}), so both
    are sound. The unbudgeted unfolding makes this a check for small
    chains (tests, fuzz cases). *)
