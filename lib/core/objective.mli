(** The selection objective (Eq. 4 / Eq. 9 of the paper, with the appendix's
    weighted generalisation).

    For a selection [M ⊆ C]:

    {v
      F(M) =  w1 · Σ_{t ∈ J}  (1 − explains(M, t))
            + w2 · Σ_{θ ∈ M}  errors(θ)
            + w3 · Σ_{θ ∈ M}  size(θ)
    v}

    with [explains(M, t) = max_{θ ∈ M} covers(θ, t)]. All values are exact
    rationals.

    Every function here reads the problem's lifted view: the first sum runs
    over the support groups, a group of [k] tuples counting [k] times, plus
    [w1] for each uncoverable tuple. The values are those of the per-tuple
    sum, since [k] equal terms add up to [k] times the term exactly. *)

type breakdown = {
  unexplained : Util.Frac.t;  (** [w1 · Σ (1 − explains)] *)
  errors : int;  (** [Σ_{θ ∈ M} errors(θ)], unweighted count *)
  size : int;  (** [Σ_{θ ∈ M} size(θ)], unweighted *)
  total : Util.Frac.t;  (** the weighted objective [F(M)] *)
}

val value : Problem.t -> bool array -> Util.Frac.t
(** [F] of a selection (given as a membership mask over the candidates). *)

val breakdown : Problem.t -> bool array -> breakdown

val group_coverage : Problem.t -> bool array -> Util.Frac.t array
(** Per support group, the degree to which the selection explains each of
    its tuples ([explains]), as a fresh array. *)

val unexplained : Problem.t -> Util.Frac.t array -> Util.Frac.t
(** [unexplained p best]: the first term [w1 · Σ_t (1 − explains)] when
    every tuple of group [g] is explained to [best.(g)] (an array as
    {!group_coverage} returns). *)

val empty_value : Problem.t -> Util.Frac.t
(** [F({})] — [w1 · |J|]. *)

val lower_bound : Problem.t -> Util.Frac.t
(** An exact-rational lower bound on [F] over all selections:
    [w1 · Σ_t (1 − max_θ covers(θ, t))], i.e. candidates cost nothing and
    every tuple gets its best achievable coverage. A solver whose achieved
    objective equals this bound is provably optimal — the certificate the
    portfolio's racing uses. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
