(** Weighted logical rules in the Łukasiewicz relaxation.

    A rule [w : b₁ ∧ … ∧ bₙ → h₁ ∨ … ∨ hₘ] compiles, per grounding, to the
    hinge potential [w · max(0, 1 − Σ I(¬bᵢ) − Σ I(hⱼ))^p]: its distance to
    satisfaction under the Łukasiewicz semantics. Either side may be empty
    (but not both), which yields priors: a body-only rule [w : p →] is a
    penalty on [p]'s truth (a negative prior), a head-only rule [w : → p]
    rewards it. A rule without weight is {e hard}: its groundings become
    inviolable constraints. *)

type term =
  | V of string  (** a rule variable *)
  | C of string  (** a constant *)

type literal = {
  positive : bool;
  pred : string;
  args : term list;
}

val pos : string -> term list -> literal

val neg : string -> term list -> literal

type t = {
  label : string;
  weight : float option;  (** [None] = hard rule *)
  squared : bool;  (** square the hinge (quadratic penalty) *)
  body : literal list;
  head : literal list;
}

val make :
  ?label : string ->
  ?squared : bool ->
  weight : float option ->
  body : literal list ->
  head : literal list ->
  unit ->
  t
(** Raises [Invalid_argument] if both sides are empty or the weight is
    negative, NaN or infinite. *)

val vars : t -> string list
(** All rule variables, each once, in first-occurrence order. *)

val pp : Format.formatter -> t -> unit
