(** Posting lists over an instance: [(relation, position, value)] to the
    tuples of that relation carrying the value at that position.

    Built once per instance and shared by every query evaluated over it;
    {!Logic.Cq.Index} probes it with the first bound position of an atom,
    and the chase fires every candidate's body over one such index. *)

type t

val build : Instance.t -> t

val instance : t -> Instance.t
(** The indexed instance. *)

val find : t -> string -> int -> Value.t -> Tuple.t list
(** [find t rel pos v] lists the tuples of [rel] whose value at [pos] is
    [v], in descending tuple order ([[]] if there are none). The order is
    part of the contract: it fixes the enumeration order of the indexed
    CQ evaluator, and with it the null labels the chase invents. *)
