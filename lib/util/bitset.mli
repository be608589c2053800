(** Fixed-width mutable bitsets, used by the Eq. 4 fast path to represent
    sets of target tuples. *)

type t

val create : int -> t
(** All bits clear. The width is fixed at creation. *)

val length : t -> int

val set : t -> int -> unit

val clear : t -> int -> unit

val get : t -> int -> bool

val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src] ors [src] into [dst]. Widths must match. *)

val count : t -> int
(** Number of set bits. *)

val cardinal : t -> int
(** Alias of {!count}. *)

val iter_set : (int -> unit) -> t -> unit
(** Applies the function to every set bit, ascending. *)

val union_count : t -> t -> int
(** [count (dst ∪ src)] without materialising the union. *)

val is_empty : t -> bool

val equal : t -> t -> bool

val of_list : int -> int list -> t
(** [of_list width bits]. *)

val to_list : t -> int list
(** Set bits, ascending. *)
