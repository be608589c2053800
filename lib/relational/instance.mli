(** Database instances: finite sets of tuples, indexed by relation name.

    Instances are persistent (purely functional); all operations return new
    instances. Tuples of a relation are kept in a set, so an instance is
    duplicate-free by construction. *)

type t

val empty : t

val add : Tuple.t -> t -> t

val add_all : Tuple.t list -> t -> t

val of_tuples : Tuple.t list -> t

val remove : Tuple.t -> t -> t

val mem : Tuple.t -> t -> bool

val tuples_of : t -> string -> Tuple.Set.t
(** All tuples of the given relation ([Tuple.Set.empty] if none). *)

val tuples : t -> Tuple.t list
(** All tuples: relations in ascending name order, each relation's tuples
    in descending tuple order. Row numbers, digests and the chase read this
    order. *)

val relations : t -> string list
(** Names of relations with at least one tuple, ascending. *)

val cardinal : t -> int

val is_empty : t -> bool

val union : t -> t -> t

val diff : t -> t -> t

val inter : t -> t -> t

val filter : (Tuple.t -> bool) -> t -> t

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> unit) -> t -> unit

val subset : t -> t -> bool
(** [subset a b] is [true] iff every tuple of [a] is in [b]. *)

val equal : t -> t -> bool

val map_values : (Value.t -> Value.t) -> t -> t
(** Applies a value transformation to every tuple (e.g. a homomorphism). *)

val constants : t -> Value.Set.t
(** All constants occurring in the instance. *)

val null_labels : t -> Value.Set.t
(** All labeled nulls occurring in the instance. *)

val is_ground : t -> bool

val pp : Format.formatter -> t -> unit
(** One tuple per line, sorted. *)
