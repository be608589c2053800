(** The oblivious chase for source-to-target tgds.

    Because st tgds only read from the source and only write to the target,
    the chase terminates after a single pass: every tgd fires once per body
    homomorphism into the source instance, with fresh nulls per firing. The
    union of the produced tuples is the canonical universal solution [K_M] of
    the source instance under the mapping. *)

(** One firing of one st tgd.

    The tuples produced by a single trigger share the nulls invented for the
    tgd's existential variables; this grouping ("trigger group") is what the
    Eq. 9 coverage semantics needs in order to corroborate null positions.

    A trigger holds its substitution as two arrays rather than a map:
    [vars] is shared by every trigger of the tgd within one {!fire}, the
    body variables in the order the compiled body ({!Logic.Cq.Plan}) binds
    them followed by the existential variables in ascending name order,
    and [values] is this firing's value for each. {!subst} rebuilds the
    map for the readers that want one. *)
module Trigger : sig
  type t = {
    tgd_index : int;  (** index of the tgd within the chased mapping *)
    tgd : Logic.Tgd.t;
    vars : string array;
        (** the tgd's body variables, then its existential variables;
            shared by the tgd's triggers *)
    values : Relational.Value.t array;
        (** per variable of [vars]: its image under the body homomorphism,
            or the null invented for it *)
    tuples : Relational.Tuple.t list;
        (** head tuples produced, in head-atom order *)
    nulls : Relational.Value.Set.t;  (** nulls invented by this trigger *)
  }

  val subst : t -> Logic.Subst.t
  (** The body homomorphism, extended with the invented nulls for the
      existential variables: [vars.(k) ↦ values.(k)] for every [k]. *)

  val pp : Format.formatter -> t -> unit
end

type result = {
  solution : Relational.Instance.t;  (** the canonical universal solution *)
  triggers : Trigger.t list;
      (** all firings, ordered by tgd index then substitution *)
}

val fire :
  ?nulls : Relational.Null_source.t ->
  ?index : Logic.Cq.Index.t ->
  Relational.Instance.t ->
  Logic.Tgd.t list ->
  Trigger.t list
(** [fire src tgds] lists every firing of [tgds] over [src], ordered by tgd
    index then substitution, without building the solution: the union of
    the trigger tuples is left to the caller that reads it. Fresh nulls are
    drawn from [nulls] (a new source starting at 0 by default). Bodies are
    compiled once per tgd ({!Logic.Cq.Plan}) and evaluated through
    [index] (built on demand when absent), and each head atom is a template
    filled from the trigger's values; callers that
    chase the same source many times should build the index once with
    [Logic.Cq.Index.build] and pass it in. Recorded as the [chase.run] span
    and the [chase.runs], [chase.triggers] and [chase.tuples_produced]
    counters. *)

val solution_of : Trigger.t list -> Relational.Instance.t
(** The union of the trigger tuples: the canonical universal solution of
    the firings. *)

val run :
  ?nulls : Relational.Null_source.t ->
  ?index : Logic.Cq.Index.t ->
  Relational.Instance.t ->
  Logic.Tgd.t list ->
  result
(** [run src tgds] chases [src] with the mapping [tgds]: {!fire}, then the
    solution built by {!solution_of}. The selection pipeline reads only the
    triggers, so it calls {!fire} and builds a solution only where the
    core stage needs one. *)

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
