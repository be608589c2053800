(** The unified selection-solver interface.

    Every solver in the repo answers the same question — given a
    {!Problem.t}, which candidate subset minimises the Eq. 9 objective? —
    but historically each exposed its own signature (restarts here, an
    options record there, a result record for CMD). This module is the one
    seam: a first-class-module interface with a fixed [solve] shape, a
    registry keyed by name, and the telemetry hook (a [solver.<name>]
    span) that instruments all of them at once.

    Since solvers now return an {!outcome} — selection plus the fractional
    MAP values when the solver computes them — CMD no longer needs an
    out-of-band entry point anywhere; [cmd_select]'s fractional column comes
    straight through the registry.

    The per-module entry points ([Greedy.solve], [Exact.solve], …) remain
    the implementations — the registry wraps them, so existing call sites
    keep working and registry calls stay bit-identical to direct ones. *)

type outcome = {
  selection : bool array;
  fractional : float array option;
      (** per-candidate relaxed [in(θ)] values, for solvers that produce
          them (CMD); [None] otherwise and on cache hits *)
}

module type S = sig
  val name : string
  (** Registry key, lowercase (["greedy"], ["cmd"], …). *)

  val solve : ?pool:Parallel.Pool.t -> ?seed:int -> Problem.t -> outcome
  (** Solves under the solver's canonical settings. Deterministic in
      [(problem, seed)] — never in [pool] (the {!Parallel.Pool} determinism
      contract); solvers without internal randomness or parallel phases
      ignore the respective argument. May raise {!Solver_error.Error} when
      the solver cannot handle the problem shape (exact past its candidate
      limit). *)
end

type t = (module S)

val all : t list
(** Every registered solver, in registry order: greedy, exact, local,
    anneal, cmd, all, portfolio. The portfolio races the others
    ({!Portfolio.race}) under the same determinism contract. *)

val names : unit -> string list

val find : string -> t option
(** Case-insensitive lookup by {!S.name}. *)

val name : t -> string

val solve :
  t ->
  ?pool:Parallel.Pool.t ->
  ?seed:int ->
  ?cache:Cache.t ->
  Problem.t ->
  outcome
(** [solve s ?pool ?seed p] runs the solver inside a [solver.<name>]
    telemetry span (the outcome returned is byte-identical with telemetry
    on or off). With [cache], the selection is
    memoized under [(name, seed, Problem.key p)] — sound because every
    registered solver is deterministic in [(problem, seed)]; on a cache hit
    [fractional] is [None]. *)
