(** The declarative expectation-test format ([.rtest]).

    One file carries a sequence of named scenario tests in a line-oriented
    text format, in the spirit of rai-test-julia's [@test_rel] blocks:

    {v
    # comment
    test e1-appendix-flip
    solver exact,greedy
    seed 7
    scenario inline
    ---
    source relation proj(pname, emp, org)
    target relation task(pname, emp, oid)
    tgd theta1: proj(P, E, O) -> task(P, E, T)
    source tuple proj(BigData, Bob, IBM)
    target tuple task(ML, Alice, 111)
    ---
    expect objective 22/3
    expect selected theta1
    v}

    Directives of one test block, in any order after its [test] line:

    - [scenario inline] followed by a [---]-delimited document in the
      {!Serialize.Document} textual format, or [scenario file PATH] — a
      reference to a corpus entry ([corpus/*.scn]) or to a bare scenario
      document, loaded by {!Fuzz.Corpus.load_scenario}. A document without
      tgds generates its candidates from its correspondences, as in the
      daemon and [cmd_select --file]. Mandatory.
    - [solver NAMES] — comma-separated {!Core.Solver} registry names
      (including the registry's [all], the select-everything solver);
      every expectation below must hold for each listed solver. Omitted:
      no solver runs, only [expect value] clauses are allowed.
    - [seed N] — passed to {!Core.Solver.solve}.
    - [weights W1 W2 W3] — objective weights (overriding a corpus entry's
      recorded weights; validated at run time, so a bad triple is a
      runnable expected-failure).
    - [cache on] — additionally build the problem and solve through a
      fresh evaluation cache, cold and warm, and fail unless digests and
      selections are byte-identical to the uncached run.
    - [compose on] — resolve the scenario as a hop chain and select over
      its end-to-end composition ({!Algebra.compose_all}). Mandatory for
      multi-hop corpus entries ([payload multihop]); a no-op for
      single-hop scenarios, whose composition is the pool itself.
    - [core on] — build the problem with [~core:true]
      ({!Core.Problem.make}): each candidate's chased target is shrunk to
      its core universal solution before coverage statistics are
      computed. Off by default, so existing goldens pin the uncored
      pipeline; cored goldens are pinned by their own tests.
    - [expect objective FRAC] — the solver's achieved Eq. 9 objective,
      written [N] or [N/D] (exact {!Util.Frac} comparison, no epsilons).
    - [expect selected LABELS...] — the selected candidates, compared as a
      multiset of tgd labels; no labels means the empty selection.
    - [expect value FRAC LABELS...] — solver-independent: the objective of
      selecting exactly [LABELS] is [FRAC] (the appendix-table form).
    - [expect counter NAME N] — the named {!Telemetry} counter's total
      over this test's evaluation equals [N] (counter tests run
      sequentially with the telemetry layer reset and enabled around
      them; totals are jobs-invariant by the telemetry contract).
    - [expect_failure REASON], [broken REASON], [skip REASON] — at most
      one, reason mandatory. [expect_failure]: the evaluation must raise
      (a completed run fails the test). [broken]: the expectations are
      known wrong — a mismatch reports as still-broken, and a broken test
      that starts passing is itself a failure (testrel semantics).
      [skip]: not evaluated at all.

    Names, labels, paths and reasons are bare words when they contain no
    whitespace or quotes, and double-quoted strings otherwise (with
    backslash escapes for quote, backslash, newline, carriage return and
    tab). {!print} renders the canonical
    form and {!parse} inverts it exactly: [parse (print f) = Ok f] for
    every representable file (qcheck-pinned in [test/test_expect.ml]),
    which is what makes [--promote] a no-op on a clean tree. *)

type scenario =
  | Inline of string list
      (** the document's lines, verbatim (no line may be the three-dash
          delimiter) *)
  | File of string  (** path as written, resolved by the runner *)

type expectation =
  | Objective of Util.Frac.t
  | Selected of string list  (** labels; order-insensitive multiset *)
  | Value of Util.Frac.t * string list
  | Counter of string * int

type flag =
  | Expect_failure of string
  | Broken of string
  | Skip of string

type test = {
  name : string;
  scenario : scenario;
  solvers : string list;  (** empty = no solver runs *)
  seed : int option;
  weights : (int * int * int) option;
  cache : bool;
  core : bool;  (** build the problem on core universal solutions *)
  compose : bool;
      (** select over the end-to-end composition of the scenario's hops *)
  expects : expectation list;  (** in file order *)
  flag : flag option;
}

type file = test list

val equal_test : test -> test -> bool

val equal_file : file -> file -> bool

val parse : string -> (file, string) result
(** Errors carry a 1-based line number. Enforced shape: nonempty unique
    test names, exactly one scenario per test, mandatory flag reasons, at
    most one flag, solver-requiring expectations only under a [solver]
    directive.

    Solver {e names} are checked against the registry by the runner, not
    here — the format stays parseable without linking the solvers. *)

val print : file -> string
(** Canonical rendering; [parse (print f) = Ok f]. *)

val frac_to_string : Util.Frac.t -> string
(** The format's fraction literal: [N] or [N/D] (never the pretty-printed
    mixed-number form). *)
