(** Sparse linear expressions [aᵀx + b] over indexed variables. *)

type t = {
  coeffs : (int * float) list;  (** variable index, coefficient; indices distinct *)
  constant : float;
}

val make : (int * float) list -> float -> t
(** Combines duplicate indices and drops zero coefficients. *)

val eval : t -> float array -> float

val vars : t -> int list
(** Variable indices, ascending. *)

val norm2 : t -> float
(** Squared Euclidean norm of the coefficient vector. *)
