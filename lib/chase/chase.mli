(** The oblivious chase for source-to-target tgds.

    Because st tgds only read from the source and only write to the target,
    the chase terminates after a single pass: every tgd fires once per body
    homomorphism into the source instance, with fresh nulls per firing. The
    union of the produced tuples is the canonical universal solution [K_M] of
    the source instance under the mapping. *)

(** One firing of one st tgd.

    The tuples produced by a single trigger share the nulls invented for the
    tgd's existential variables; this grouping ("trigger group") is what the
    Eq. 9 coverage semantics needs in order to corroborate null positions. *)
module Trigger : sig
  type t = {
    tgd_index : int;  (** index of the tgd within the chased mapping *)
    tgd : Logic.Tgd.t;
    subst : Logic.Subst.t;
        (** the body homomorphism, extended with the invented nulls for the
            existential variables *)
    tuples : Relational.Tuple.t list;
        (** head tuples produced, in head-atom order *)
    nulls : Relational.Value.Set.t;  (** nulls invented by this trigger *)
  }

  val pp : Format.formatter -> t -> unit
end

type result = {
  solution : Relational.Instance.t;  (** the canonical universal solution *)
  triggers : Trigger.t list;
      (** all firings, ordered by tgd index then substitution *)
}

val run :
  ?nulls : Relational.Null_source.t ->
  ?index : Logic.Cq.Index.t ->
  Relational.Instance.t ->
  Logic.Tgd.t list ->
  result
(** [run src tgds] chases [src] with the mapping [tgds]. Fresh nulls are
    drawn from [nulls] (a new source starting at 0 by default). Bodies are
    evaluated through [index] (built on demand when absent); callers that
    chase the same source many times should build the index once with
    [Logic.Cq.Index.build] and pass it in. *)

val universal_solution :
  ?nulls : Relational.Null_source.t ->
  ?index : Logic.Cq.Index.t ->
  Relational.Instance.t ->
  Logic.Tgd.t list ->
  Relational.Instance.t
(** Just the instance part of {!run}. *)

val run_columnar :
  ?nulls : Relational.Null_source.t ->
  Relational.Columnar.t ->
  Logic.Tgd.t list ->
  result
(** [run ?nulls ~index:col (Relational.Index.instance col) tgds], under
    the name the pipeline benchmark's traced path still calls; build [col]
    once per source with {!Relational.Columnar.of_instance}. *)

val check_result :
  source : Relational.Instance.t -> result -> (unit, string) Stdlib.result
(** Verifies the internal invariants of a chase result: the solution is the
    union of the trigger tuples, invented nulls are pairwise disjoint across
    triggers and every null in a trigger tuple was invented by some trigger,
    each trigger's substitution is a body homomorphism into [source], and
    the trigger tuples are exactly the instantiated head atoms. A diagnostic
    hook for the fuzzing harness. *)

val satisfies :
  source : Relational.Instance.t ->
  target : Relational.Instance.t ->
  Logic.Tgd.t ->
  bool
(** [satisfies ~source ~target θ] is [true] iff the pair [(source, target)]
    satisfies [θ]: every homomorphism of the body into [source] extends to a
    homomorphism of the head into [target]. *)

val satisfies_all :
  source : Relational.Instance.t ->
  target : Relational.Instance.t ->
  Logic.Tgd.t list ->
  bool

(** Core universal solutions (see {!Core_solution}). *)
module Core_solution : module type of Core_solution

(** Logical implication between st tgds (see {!Implication}). *)
module Implication : module type of Implication

(** Certain answers over instances with labeled nulls (see {!Certain}). *)
module Certain : module type of Certain

(** Equality-generating dependencies and their chase (see {!Egd}). *)
module Egd : module type of Egd
