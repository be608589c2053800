(** The data a PSL program is grounded against.

    Observed atoms carry soft truth values in [0,1]. Atoms of closed
    predicates that are not observed are false (closed world assumption);
    ground atoms of open predicates become MAP variables. *)

type t

val create : Predicate.t list -> t
(** Raises [Invalid_argument] on duplicate predicate names. *)

val predicate : t -> string -> Predicate.t
(** Raises [Not_found]. *)

val predicates : t -> Predicate.t list

val observe : Gatom.t -> float -> t -> t
(** Records a truth value. Raises [Invalid_argument] if the predicate is
    unknown, the arity mismatches, or the value lies outside [0,1] (NaN
    included).
    Re-observing an atom overwrites. *)

val observe_all : (Gatom.t * float) list -> t -> t

val truth : t -> Gatom.t -> float option
(** The observed value, if any. *)

val truth_closed : t -> Gatom.t -> float
(** Observed value or 0 for atoms of closed predicates (closed world).
    Raises [Invalid_argument] on an open predicate. *)

val observed_of : t -> string -> (Gatom.t * float) list
(** All observations of one predicate, ascending by atom. *)
