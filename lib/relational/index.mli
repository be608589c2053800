(** Posting lists over an instance: [(relation, position, value)] to the
    tuples of that relation carrying the value at that position.

    Built once per instance and shared by every query evaluated over it;
    a compiled {!Logic.Cq.Plan} probes it at each atom's fixed probe
    position, and the chase fires every candidate's body over one such
    index. The table is monomorphic: one table per relation and position,
    keyed by value and presized to the relation, so a probe hashes one
    value and allocates nothing.

    Nothing is indexed up front: a relation is listed on its first probe,
    and a position's table is built on the first {!find} at that position.
    Most candidate bodies are a single atom that never probes a position,
    so most positions are never built. The index is therefore mutated by
    {!find} and {!tuples_of}: an index belongs to one domain, and no pool
    task may share one with another. *)

type t

val build : Instance.t -> t
(** An index over the instance; touches no relation. *)

val instance : t -> Instance.t
(** The indexed instance. *)

val find : t -> string -> int -> Value.t -> Tuple.t list
(** [find t rel pos v] lists the tuples of [rel] whose value at [pos] is
    [v], in descending tuple order ([[]] if there are none). The order is
    part of the contract: it fixes the enumeration order of the indexed
    CQ evaluator, and with it the null labels the chase invents. *)

val tuples_of : t -> string -> Tuple.t list
(** The tuples of [rel] in ascending order, [Tuple.Set.elements] of the
    relation, listed once per index. It serves an atom with no bound
    position, and its order is part of the contract for the same reason
    as {!find}'s. *)
