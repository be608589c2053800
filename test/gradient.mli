(** Projected subgradient descent on HL-MRF energies.

    A slow but straightforward reference solver, kept only as the oracle
    of [test_psl]'s cross-check of {!Psl.Admm}. Hard constraints are
    handled by a quadratic penalty, so the result is only approximately
    feasible. *)

val solve :
  ?iterations : int ->
  ?step : float ->
  ?penalty : float ->
  Psl.Hlmrf.t ->
  float array
(** [solve model] returns the best (lowest penalised energy) iterate of
    [iterations] (default 5000) projected subgradient steps with step size
    [step/√t] (default [step = 0.5]); constraint violations are penalised
    quadratically with coefficient [penalty] (default 100). *)
