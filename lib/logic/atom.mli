(** Relational atoms: a relation name applied to terms. *)

type t = {
  rel : string;
  args : Term.t array;
}

val make : string -> Term.t list -> t

val arity : t -> int

val vars : t -> String_set.t
(** Variable names occurring in the atom, in a set. *)

val vars_of_list : t list -> String_set.t
(** Variable names occurring in any of the atoms. *)

val vars_in_order : t -> string list
(** Variable names in first-occurrence order, without duplicates. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val conforms_to : Relational.Schema.t -> t -> bool
(** [true] iff the schema has a relation of this name with matching arity. *)

val pp : Format.formatter -> t -> unit
