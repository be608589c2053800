(** Evaluating [.rtest] suites against the solver registry.

    The runner compiles each {!Rtest.test} onto {!Core.Solver.solve}: the
    scenario becomes a {!Core.Problem.t} (inline documents through
    {!Fuzz.Corpus.scenario_of_string}, file references through
    {!Fuzz.Corpus.load_scenario}, then {!Fuzz.Case.end_to_end} — the
    daemon's loader), every listed solver runs on it, and each expectation is
    checked exactly (objectives as {!Util.Frac}, selections as label
    multisets, counters against {!Telemetry} totals).

    Determinism: the report for a suite is byte-identical for any [jobs] —
    tests fan out over a {!Parallel.Pool} with results reassembled in
    (file, test) order, solvers run without an internal pool, and tests
    with [expect counter] lines run in a sequential phase after the pool
    phase with the telemetry layer reset/enabled around each (counter
    totals are jobs-invariant, but the counters themselves are
    process-global, so concurrent tests would observe each other). *)

exception Scenario_error of string
(** The scenario resolved but could not be turned into a problem: a parse
    error or a malformed corpus entry. Reported as a positioned hard
    failure (prefixed with the [.rtest] path) even under [expect_failure]
    — an expected failure must come from the scenario's semantics, not
    from the harness failing to read it. *)

type failure =
  | Mismatch of {
      index : int;  (** position in the test's [expects] list *)
      expected : Rtest.expectation;
      actual : Rtest.expectation option;
          (** the promotable replacement; [None] when the listed solvers
              disagree on the actual value *)
      message : string;
    }
  | Hard of string
      (** non-promotable: exceptions, unknown solvers/counters/labels,
          dangling scenario files, cache identity violations, a completed
          run under [expect_failure], a [broken] test that passes *)

type outcome =
  | Pass
  | Fail of failure list
  | Xfail of string  (** [expect_failure] and the run did fail *)
  | Still_broken of string  (** [broken] and the expectations still miss *)
  | Skipped of string

type result = {
  test : Rtest.test;
  outcome : outcome;
}

type report = {
  files : (string * result list) list;  (** suite order, as loaded *)
  passed : int;
  failed : int;
  xfailed : int;
  broken : int;
  skipped : int;
}

val load_dir :
  string -> ((string * Rtest.file) list, string) Stdlib.result
(** Parses every [*.rtest] file of a directory in lexicographic filename
    order, keyed by its path. A missing directory or malformed file is an
    [Error] naming the offending path. *)

val run :
  ?jobs:int -> ?filter:string -> (string * Rtest.file) list -> report
(** Evaluates a suite. [filter] keeps only tests whose name contains the
    substring (filtered-out tests are absent from the report). [jobs]
    sizes the pool (default 1); the report is identical for any value. *)

val render : report -> string
(** The human report: one status line per test with indented failure
    details, then a summary — no timings, no absolute paths, so the
    output is byte-stable across machines and [--jobs]. *)

val exit_code : report -> int
(** [1] if any test failed, else [0] (xfail/still-broken/skip all count
    as expected outcomes). *)

val promotable : result -> bool
(** Whether a result is a pure value-mismatch failure that {!promote}
    would rewrite (unflagged, and every failure carries an agreed
    actual). *)

val promote : (string * Rtest.file) list -> report -> (string * string) list
(** Rewritten file contents for suites whose failures are {e all} pure
    value mismatches with an agreed actual ([Mismatch] with
    [actual = Some _]): each such expectation is replaced by its actual
    and the file re-rendered canonically. Tests with any [Hard] failure,
    solver disagreement, or a [broken]/[expect_failure] flag are left
    untouched. A clean (all-passing) suite yields [[]] — promoting is a
    no-op. *)
