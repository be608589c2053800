(** Hinge-loss Markov random fields.

    An HL-MRF over variables [x ∈ [0,1]^n] is the energy function

    {v
      f(x) = Σ_k w_k · max(0, a_kᵀx + b_k)²     (squared hinges)
           + Σ_k w_k · (a_kᵀx + b_k)           (linear potentials)
    v}

    subject to hard linear constraints [aᵀx + b ≤ 0]. MAP inference
    minimises [f] over the feasible box — a convex problem, solved by
    {!Admm}. These are the shapes CMD's ground model ([Core.Cmd]) uses; an
    equality is two opposed inequalities. *)

type potential =
  | Hinge of { weight : float; expr : Linexpr.t }
      (** [w·max(0, aᵀx+b)²]; [w ≥ 0] *)
  | Linear of { weight : float; expr : Linexpr.t }  (** [w·(aᵀx+b)] *)

type constr = Leq of Linexpr.t  (** [aᵀx + b ≤ 0] *)

type t

val create : num_vars : int -> t

val num_vars : t -> int

val add_potential : t -> potential -> unit
(** Raises [Invalid_argument] on a negative hinge weight, a variable index
    out of range, or a weight, coefficient or constant that is NaN or
    infinite. *)

val add_constraint : t -> constr -> unit
(** Raises [Invalid_argument] on a variable index out of range or a
    coefficient or constant that is NaN or infinite. *)

val potentials : t -> potential list
(** In insertion order. *)

val constraints : t -> constr list

val num_potentials : t -> int

val num_constraints : t -> int

val energy : t -> float array -> float
(** The objective value of an assignment (constraints not included). *)

val feasible : ?tol : float -> t -> float array -> bool
(** Box and hard constraints satisfied up to [tol] (default 1e-6). *)
