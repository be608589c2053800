(** Source-to-target tuple-generating dependencies (st tgds).

    An st tgd is a formula [∀x̄ (φ(x̄) → ∃ȳ ψ(x̄, ȳ))] where [φ] is a
    conjunction of atoms over the source schema and [ψ] a conjunction of
    atoms over the target schema. Variables of the head not occurring in the
    body are implicitly existentially quantified. A tgd is {e full} when it
    has no existential variables.

    The [size] of a tgd — the measure used in the selection objective — is
    the number of atoms plus the number of existential variables. This is the
    measure consistent with the appendix's worked example (size 3 for a
    copy-with-existential tgd with two atoms, size 4 for its three-atom
    variant). *)

type t = private {
  label : string;  (** a display label, e.g. ["theta1"] *)
  body : Atom.t list;  (** conjunction over the source schema; non-empty *)
  head : Atom.t list;  (** conjunction over the target schema; non-empty *)
}

val make : ?label : string -> body : Atom.t list -> head : Atom.t list -> unit -> t
(** Raises [Invalid_argument] if [body] or [head] is empty. The default label
    is ["tgd"]. *)

val relabel : string -> t -> t

val body_vars : t -> String_set.t

val head_vars : t -> String_set.t

val frontier_vars : t -> String_set.t
(** Variables shared between body and head (exported variables). *)

val existential_vars : t -> String_set.t
(** Head variables not bound by the body. *)

val is_full : t -> bool

val size : t -> int
(** [#atoms + #existential variables]. *)

val well_formed :
  source : Relational.Schema.t -> target : Relational.Schema.t -> t -> (unit, string) result
(** Checks that every body atom conforms to the source schema and every head
    atom to the target schema. *)

val canonicalize : t -> t
(** Renames variables to [v0, v1, ...] in first-occurrence order (body before
    head, left to right) and sorts neither body nor head; two tgds that are
    identical up to a variable renaming that preserves atom order
    canonicalise identically. *)

val equal_up_to_renaming : t -> t -> bool
(** Structural equality modulo variable names, insensitive to the order of
    atoms within body and head. True only if both tgds have the same
    multiset of atom shapes (relation plus constant pattern) in the body and
    in the head.

    Approximation: the first check sorts each side's atoms by shape and
    compares canonical forms. When that fails, every reordering of the atoms
    within each group of equal shape is tried, but only if both sides have
    at most six atoms. A side of more than six atoms that needs this search
    answers [false], which may be a false negative. *)

val equal : t -> t -> bool
(** Strict structural equality (including variable names); labels ignored. *)

val compare : t -> t -> int
(** Order compatible with {!equal}; labels ignored. *)

val rename_apart : suffix : string -> t -> t
(** Appends [suffix] to every variable name, so that two tgds can be used in
    the same scope without capture. *)

val pp : Format.formatter -> t -> unit
(** Prints as [label: body_atoms -> head_atoms]. *)

val to_string : t -> string

module Set : Set.S with type elt = t
