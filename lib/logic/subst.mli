(** Substitutions mapping variable names to instance values. *)

type t

val empty : t

val singleton : string -> Relational.Value.t -> t

val bind : string -> Relational.Value.t -> t -> t option
(** [bind v x s] extends [s] with [v ↦ x]. Returns [None] iff [v] is already
    bound to a different value. *)

val bind_exn : string -> Relational.Value.t -> t -> t
(** Like [bind] but raises [Invalid_argument] on conflict. *)

val find_opt : string -> t -> Relational.Value.t option

val mem : string -> t -> bool

val apply_term : t -> Term.t -> Relational.Value.t option
(** A constant maps to itself; a variable to its binding, if any. *)

val apply_atom : t -> Atom.t -> Relational.Tuple.t option
(** Grounds an atom into a tuple; [None] if some variable is unbound. *)

val apply_atom_exn : t -> Atom.t -> Relational.Tuple.t

val bindings : t -> (string * Relational.Value.t) list

val cardinal : t -> int

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
