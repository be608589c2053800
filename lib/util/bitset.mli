(** Fixed-width mutable bitsets. [Core.Full], the Eq. 4 fast path, is the
    only user: a candidate's covered target tuples are one bitset, and the
    objective and the exact search count unions of them. *)

type t

val create : int -> t
(** All bits clear. The width is fixed at creation. *)

val set : t -> int -> unit
(** Raises [Invalid_argument] outside [0 .. width - 1]. *)

val copy : t -> t

val union_into : t -> t -> unit
(** [union_into dst src] ors [src] into [dst]. Widths must match. *)

val count : t -> int
(** Number of set bits. *)

val union_count : t -> t -> int
(** [count (dst ∪ src)] without materialising the union. *)

val of_list : int -> int list -> t
(** [of_list width bits]. *)

val to_list : t -> int list
(** Set bits, ascending. *)
