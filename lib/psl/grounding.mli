(** Grounding PSL rules against a database into an HL-MRF.

    Every rule variable must occur in at least one positive body literal of a
    closed predicate (the standard PSL well-formedness condition); bindings
    are enumerated by joining those literals over the observed atoms with
    non-zero truth. Ground atoms of open predicates become MAP variables;
    closed atoms fold into the hinge expressions as constants. Groundings
    that are trivially satisfied (their distance to satisfaction cannot be
    positive anywhere in the box) are dropped. *)

exception Unsatisfiable_hard_rule of string
(** Raised when a hard rule grounds to a violated constant constraint; the
    payload is the rule label. *)

type ground_rule = {
  rule_index : int;  (** position of the rule in the input list *)
  expr : Linexpr.t;  (** the distance-to-satisfaction expression *)
  squared : bool;
}

type t = {
  model : Hlmrf.t;  (** one variable per open ground atom *)
  atoms : Gatom.t array;  (** variable index → open ground atom *)
  index : int Gatom.Map.t;  (** open ground atom → variable index *)
  constant_energy : float;
      (** energy contributed by soft groundings without open atoms *)
  groundings : int;  (** number of non-trivial ground rules produced *)
  soft_groundings : ground_rule list;
      (** the soft groundings with their rule of origin — what weight
          learning needs *)
}

val ground : Database.t -> Rule.t list -> t
(** Raises [Invalid_argument] if a rule has an unbound variable, an unknown
    predicate, or an arity mismatch; raises {!Unsatisfiable_hard_rule} as
    described above. *)

val var_of : t -> Gatom.t -> int option

val truth_in : t -> float array -> Gatom.t -> float option
(** The value of an open ground atom in a MAP solution. *)

val map_inference : ?options : Admm.options -> t -> Admm.outcome
(** Convenience: run {!Admm.solve} on the ground model. *)

val rule_distances : t -> num_rules : int -> float array -> float array
(** [rule_distances g ~num_rules x]: the total (unweighted) distance to
    satisfaction of each input rule's soft groundings under assignment [x],
    as an array of length [num_rules]. *)
