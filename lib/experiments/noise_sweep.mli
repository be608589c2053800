(** Shared implementation of the quality-vs-noise figures (E3, E4, E5).

    For each noise level of the swept parameter (other noise parameters 0)
    and each seed, a scenario is generated, the selection problem built, and
    each solver run; the table reports the mapping-level and tuple-level F1
    averaged over seeds. Seeds fan out over the context's pool; the table
    is bit-identical to a sequential sweep for any [jobs]. Re-serving a
    sweep under a cached context answers every point from the cache
    ({!Common.run_solver}). *)

type dimension =
  | Errors  (** sweep piErrors — E3 *)
  | Unexplained  (** sweep piUnexplained — E4 *)
  | Corresp  (** sweep piCorresp — E5 *)

val run :
  Common.Ctx.t ->
  ?levels : int list ->
  ?seeds : int list ->
  ?solvers : Common.solver list ->
  id : string ->
  dimension ->
  Table.t
(** Defaults: levels {!E2_parameters.noise_levels}, seeds
    {!E2_parameters.seeds}, solvers CMD/greedy/all. *)
