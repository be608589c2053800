(** The fuzzing campaign driver.

    A campaign runs [budget] generated cases through a set of oracles. Case
    [i] is generated from [Parallel.Seed.derive seed i], cases are fanned
    out over a {!Parallel.Pool}, and the per-case reports are folded into a
    summary strictly in case order — so for a fixed [seed] and [budget] the
    summary (and {!pp_summary} output) is bit-identical for any [--jobs].
    The fold shrinks only the first failing case of each oracle family: one
    bug usually fails many cases, and their shrinks would be
    near-duplicates. *)

type failure = {
  oracle : string;  (** name of the failing oracle family *)
  detail : string;
      (** failure message, on the shrunk case when there is one, else on
          the original *)
  original : Case.t;  (** the generated case that failed *)
  shrunk : Case.t option;
      (** its 1-minimal shrink, still failing; only for the family's first
          failure in case order *)
}

type summary = {
  seed : int;
  budget : int;
  passed : int;  (** (case, oracle) checks that passed *)
  skipped : int;  (** checks whose oracle did not apply *)
  by_oracle : (string * (int * int * int)) list;
      (** per oracle: (pass, skip, fail), in oracle order *)
  by_tag : (string * int) list;
      (** generated cases per generator family, in {!Gen.tags} order *)
  failures : failure list;  (** in case order, then oracle order *)
}

val run :
  ?pool : Parallel.Pool.t ->
  ?cache : Cache.t ->
  ?oracles : Oracle.t list ->
  seed : int ->
  budget : int ->
  unit ->
  summary
(** Runs the campaign. [oracles] defaults to {!Oracle.all}; without a
    [pool] the cases run sequentially in the caller. [cache] memoizes the
    per-case problem construction across oracles and duplicate cases; the
    summary is bit-identical with or without it, and the cache's hit/miss
    totals are jobs-invariant because lookups are single-flight. *)

val pp_summary : Format.formatter -> summary -> unit
(** Deterministic (no timing, no paths): two summaries compare equal iff
    their rendered forms do. *)

val save_failures : dir : string -> summary -> string list
(** Persists each shrunk case as a corpus entry (at most one per family);
    returns the paths written, in failure order. *)

val replay : ?oracles : Oracle.t list -> Corpus.entry -> (unit, string) result
(** Re-runs the entry's recorded oracle on its case. [Ok ()] on pass or
    skip; [Error] carries the failure message, or a note that the recorded
    oracle name is unknown. *)
