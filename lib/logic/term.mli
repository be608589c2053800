(** Terms of tgd formulas: variables or constants.

    Labeled nulls never appear in formulas — only in instances — so a formula
    constant is a plain string. *)

type t =
  | Var of string  (** a first-order variable *)
  | Cst of string  (** a constant *)

val compare : t -> t -> int

val equal : t -> t -> bool

val var_name : t -> string option

val pp : Format.formatter -> t -> unit
(** Variables print as written. A constant prints verbatim when the textual
    grammar would read it back as a constant (leading lowercase letter,
    digit or ['-'], identifier characters throughout), and double-quoted
    otherwise — so a constant that spells like a variable (e.g. one starting
    with ['_']) still round-trips through {!Serialize}. *)

module Set : Set.S with type elt = t

module Map : Map.S with type key = t
