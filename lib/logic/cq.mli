(** Evaluation of conjunctive queries (conjunctions of atoms) over instances.

    The evaluator computes all substitutions of the query's variables under
    which every atom is a tuple of the instance, i.e. all homomorphisms from
    the canonical instance of the query into the database. Atoms are joined
    left-to-right after a greedy reordering that prefers atoms with the most
    already-bound variables (and, as a tie-break, the smallest relation), a
    standard heuristic that keeps intermediate results small. *)

val answers : Relational.Instance.t -> Atom.t list -> Subst.t list
(** All satisfying substitutions, each binding exactly the variables of the
    query. The empty query has the single answer [Subst.empty]. *)

val answers_seq : Relational.Instance.t -> Atom.t list -> Subst.t Seq.t
(** Lazy variant of {!answers}; substitutions are produced on demand. *)

val holds : Relational.Instance.t -> Atom.t list -> bool
(** [true] iff the query has at least one answer. *)

val extensions :
  Relational.Instance.t -> Subst.t -> Atom.t list -> Subst.t list
(** [extensions inst s atoms] lists all extensions of the partial
    substitution [s] satisfying [atoms]. [answers inst q] is
    [extensions inst Subst.empty q]. *)

val order_atoms : Atom.t list -> Atom.t list
(** The join order the evaluator would use, exposed for testing. *)

(** Hash indexes over an instance, for repeated evaluation.

    The plain evaluator scans a whole relation per atom; an index
    ({!Relational.Index}) maps [(relation, position, value)] to the matching
    tuples, so atoms with at least one bound position (a constant or an
    already-bound variable) probe only candidates. Build once per instance
    and reuse across queries — the chase does this for every tgd body it
    fires over the same source. *)
module Index : sig
  type t = Relational.Index.t

  val build : Relational.Instance.t -> t

  val instance : t -> Relational.Instance.t
end

val answers_indexed : Index.t -> Atom.t list -> Subst.t list
(** Same results as {!answers} on the indexed instance. *)

val extensions_indexed : Index.t -> Subst.t -> Atom.t list -> Subst.t list
