(** Values appearing in database instances.

    A value is either a constant (an uninterpreted string, as in the data
    exchange literature) or a labeled null, identified by an integer label.
    Labeled nulls are invented by the chase for existentially quantified
    variables; constants only ever denote themselves. *)

type t =
  | Const of string  (** an ordinary data value *)
  | Null of int  (** a labeled null, e.g. [Null 3] prints as [_N3] *)

val compare : t -> t -> int
(** Total order: all constants (lexicographically) before all nulls (by
    label). *)

val equal : t -> t -> bool

val is_null : t -> bool

val is_const : t -> bool

val pp : Format.formatter -> t -> unit
(** Prints a constant verbatim and a null as [_N<label>]. *)

val to_string : t -> string

module Set : Set.S with type elt = t

module Map : Map.S with type key = t

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by a value, with a monomorphic hash and equality. *)
