(** Evaluation of conjunctive queries (conjunctions of atoms) over instances.

    The evaluator computes all substitutions of the query's variables under
    which every atom is a tuple of the instance, i.e. all homomorphisms from
    the canonical instance of the query into the database. There is one
    evaluator: every query is compiled into a {!Plan} and run over an
    {!Index} of the instance, the matcher the chase fires tgd bodies
    through. Atoms are joined left-to-right after a greedy reordering that
    prefers atoms with the most already-bound variables (and, as a
    tie-break, the fewest distinct variables), a standard heuristic that
    keeps intermediate results small.

    Answers come in the plan's enumeration order, which the index's
    documented candidate order fixes ({!Relational.Index.find},
    {!Relational.Index.tuples_of}). *)

val answers : Relational.Instance.t -> Atom.t list -> Subst.t list
(** All satisfying substitutions, each binding exactly the variables of the
    query, in enumeration order. The empty query has the single answer
    [Subst.empty]. *)

val holds : Relational.Instance.t -> Atom.t list -> bool
(** [true] iff the query has at least one answer. The enumeration stops
    at the first answer. *)

val extensions :
  Relational.Instance.t -> Subst.t -> Atom.t list -> Subst.t list
(** [extensions inst s atoms] lists all extensions of the partial
    substitution [s] satisfying [atoms], in enumeration order: the plan
    is compiled with the query variables [s] binds as pre-bound slots.
    [answers inst q] is [extensions inst Subst.empty q]. *)

val order_atoms : Atom.t list -> Atom.t list
(** The join order the evaluator would use, exposed for testing. *)

(** Hash indexes over an instance, for repeated evaluation.

    An index ({!Relational.Index}) maps [(relation, position, value)] to
    the matching tuples, so atoms with at least one bound position (a
    constant or an already-bound variable) probe only candidates. It is
    built lazily: a relation is listed, and a position's table built, on
    first use. {!answers}, {!extensions} and {!holds} build one per call;
    a caller evaluating many queries over one instance builds it once and
    runs {!Plan}s over it — the chase does this for every tgd body it
    fires over the same source. *)
module Index : sig
  type t = Relational.Index.t

  val build : Relational.Instance.t -> t

  val instance : t -> Relational.Instance.t
end

(** A query compiled once, the evaluator behind every function above.

    Compiling fixes everything an evaluation would otherwise decide per
    answer: the atoms are taken in {!order_atoms} order; each variable
    is numbered to a slot of an environment array, in binding order after
    the pre-bound ones; each position is a constant, the first binding of
    a variable (written into its slot) or a check against a bound slot;
    and each atom's probe position is its first position holding a
    constant or a variable bound by an earlier atom, or none (a scan of
    the relation's {!Relational.Index.tuples_of}). The enumeration walks
    the index's candidate lists in their documented order, so answers,
    and with them the null labels the chase invents and its trigger
    order, follow the index's contract. *)
module Plan : sig
  type t

  val compile : ?bound : string list -> Atom.t list -> t
  (** [compile ~bound atoms] numbers the distinct variables in [bound]
      (pre-bound by the caller, default none) to slots [0 ..] in list
      order, and the remaining variables of [atoms] after them in the
      order the plan binds them. *)

  val vars : t -> string array
  (** The variable of each slot. *)

  val iter :
    t -> Index.t -> Relational.Value.t array -> (Relational.Value.t array -> unit) -> unit
  (** [iter plan index env f] calls [f env] once per answer, in
      enumeration order, with [env] holding every slot's value. [env]
      must have a slot per {!vars}, the pre-bound ones filled; it is
      overwritten as the enumeration proceeds, so [f] copies what it
      keeps. *)
end
