(* The declarative expectation DSL (lib/expect).

   Three layers:
   1. the canonical printer and the parser are inverses: a qcheck
      round-trip over adversarial names, quoting, inline bodies and
      fraction extremes, plus printed-form idempotence;
   2. flag semantics pinned as units: expect_failure captures guarded
      exceptions only, a broken test that starts passing is itself a
      failure, skip never evaluates, and a dangling scenario-file
      reference is a hard failure even under expect_failure;
   3. the runner end to end: byte-identical reports for any --jobs over
      the committed expect/ suite, and the promote workflow (promote a
      stale golden, re-run green, promoting a clean suite is a no-op). *)

open QCheck2
module Rtest = Expect.Rtest
module Runner = Expect.Runner

(* --- generators --------------------------------------------------------- *)

let plain_gen = Gen.(string_size (int_range 1 8) ~gen:(char_range 'a' 'z'))

let adversarial = [
  "has space"; "quote\"inside"; "back\\slash"; "#leading-hash"; "tab\there";
  "multi\nline"; "trailing "; " leading"; "--"; "---x"; "a,b"; "\"";
]

let weird_gen = Gen.(oneof [ plain_gen; oneofl adversarial ])

let frac_gen =
  Gen.(
    oneof
      [
        (let* n = int_range (-1000) 1000 in
         let* d = int_range 1 60 in
         return (Util.Frac.make n d));
        oneofl
          [
            Util.Frac.of_int 0;
            Util.Frac.of_int max_int;
            Util.Frac.make min_int 3;
            Util.Frac.make 22 3;
          ];
      ])

(* solver names survive the comma-joined round trip as long as they contain
   no comma and are nonempty *)
let solver_name_gen =
  Gen.(
    oneof [ plain_gen; oneofl [ "has space"; "quote\"y"; "#hash"; "up/down" ] ])

let label_gen = weird_gen

let value_expect_gen =
  Gen.(
    let* f = frac_gen in
    let* labels = list_size (int_range 0 3) label_gen in
    return (Rtest.Value (f, labels)))

let any_expect_gen =
  Gen.(
    oneof
      [
        map (fun f -> Rtest.Objective f) frac_gen;
        map (fun ls -> Rtest.Selected ls) (list_size (int_range 0 3) label_gen);
        value_expect_gen;
        (let* name = weird_gen in
         let* count = int_range (-5) 1000 in
         return (Rtest.Counter (name, count)));
      ])

(* inline body lines are kept verbatim, so anything goes except the
   three-dash delimiter and embedded newlines (a line is a line) *)
let body_line_gen =
  Gen.(
    map
      (fun s -> if s = "---" then "- - -" else s)
      (oneof
         [
           plain_gen; return ""; return "  indented";
           return "source relation r(a)"; return "# not a comment here";
         ]))

let scenario_gen =
  Gen.(
    oneof
      [
        map (fun p -> Rtest.File p) weird_gen;
        map
          (fun ls -> Rtest.Inline ls)
          (list_size (int_range 0 4) body_line_gen);
      ])

let flag_gen =
  Gen.(
    let reason = weird_gen in
    option
      (oneof
         [
           map (fun r -> Rtest.Expect_failure r) reason;
           map (fun r -> Rtest.Broken r) reason;
           map (fun r -> Rtest.Skip r) reason;
         ]))

let test_gen index =
  Gen.(
    let* name = weird_gen in
    let* scenario = scenario_gen in
    let* solvers = oneof [ return []; list_size (int_range 1 3) solver_name_gen ] in
    let* expects =
      (* objective/selected/counter expectations require a solver list *)
      if solvers = [] then list_size (int_range 0 3) value_expect_gen
      else list_size (int_range 0 4) any_expect_gen
    in
    let* seed = option (int_range (-1000) 1000) in
    let* weights =
      option
        (let* a = int_range (-9) 9 in
         let* b = int_range (-9) 9 in
         let* c = int_range (-9) 9 in
         return (a, b, c))
    in
    let* cache = bool in
    let* core = bool in
    let* compose = bool in
    let* flag = flag_gen in
    return
      {
        (* suffix the index so names are unique within the file *)
        Rtest.name = Printf.sprintf "%s_%d" name index;
        scenario;
        solvers;
        seed;
        weights;
        cache;
        core;
        compose;
        expects;
        flag;
      })

let file_gen =
  Gen.(
    let* n = int_range 1 4 in
    flatten_l (List.init n test_gen))

let roundtrip_tests =
  [
    Test.make ~name:"parse (print file) = file" ~count:300 file_gen (fun f ->
        match Rtest.parse (Rtest.print f) with
        | Ok f' -> Rtest.equal_file f f'
        | Error msg -> Test.fail_reportf "did not parse back: %s" msg);
    Test.make ~name:"printed form is a fixed point" ~count:150 file_gen
      (fun f ->
        let once = Rtest.print f in
        match Rtest.parse once with
        | Ok f' -> String.equal once (Rtest.print f')
        | Error msg -> Test.fail_reportf "did not parse back: %s" msg);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- flag semantics ------------------------------------------------------ *)

let appendix_scn =
  String.concat "\n"
    [
      "source relation proj(pname, emp, org)";
      "target relation task(pname, emp, oid)";
      "target relation org(oid, oname)";
      "tgd theta1: proj(P, E, O) -> task(P, E, T)";
      "tgd theta3: proj(P, E, O) -> task(P, E, T), org(T, O)";
      "source tuple proj(BigData, Bob, IBM)";
      "source tuple proj(ML, Alice, SAP)";
      "target tuple task(ML, Alice, 111)";
      "target tuple org(111, SAP)";
      "target tuple task(Social, Carl, 222)";
      "target tuple org(222, MSR)";
    ]

let suite_of_string text =
  match Rtest.parse text with
  | Ok tests -> [ ("unit.rtest", tests) ]
  | Error msg -> Alcotest.failf "suite did not parse: %s" msg

let sole_outcome report =
  match report.Expect.Runner.files with
  | [ (_, [ r ]) ] -> r.Expect.Runner.outcome
  | _ -> Alcotest.fail "expected exactly one result"

let run_one text = sole_outcome (Expect.Runner.run (suite_of_string text))

let mk ?(header = []) body =
  String.concat "\n" (header @ [ "scenario inline"; "---"; appendix_scn; "---" ] @ body)

let test_xfail_guarded () =
  (* non-positive weights raise inside the guarded region: xfail *)
  let t =
    mk ~header:[ "test t"; "expect_failure bad weights"; "weights 0 1 1" ] []
  in
  match run_one t with
  | Expect.Runner.Xfail r -> Alcotest.(check string) "reason" "bad weights" r
  | _ -> Alcotest.fail "expected Xfail"

let test_xfail_on_success_fails () =
  let t = mk ~header:[ "test t"; "expect_failure should not complete" ] [] in
  match run_one t with
  | Expect.Runner.Fail [ Expect.Runner.Hard m ] ->
    Alcotest.(check bool) "names the completion" true
      (String.length m > 0)
  | _ -> Alcotest.fail "expected a hard failure"

let test_broken_still_failing () =
  let t =
    mk
      ~header:[ "test t"; "broken wrong table"; "solver exact" ]
      [ "expect objective 5" ]
  in
  (match run_one t with
  | Expect.Runner.Still_broken r ->
    Alcotest.(check string) "reason" "wrong table" r
  | _ -> Alcotest.fail "expected Still_broken");
  let report = Expect.Runner.run (suite_of_string t) in
  Alcotest.(check int) "broken does not fail the run" 0
    (Expect.Runner.exit_code report)

let test_broken_now_passes_fails () =
  let t =
    mk
      ~header:[ "test t"; "broken stale flag"; "solver exact" ]
      [ "expect objective 4" ]
  in
  match run_one t with
  | Expect.Runner.Fail [ Expect.Runner.Hard m ] ->
    Alcotest.(check bool) "says to remove the flag" true
      (String.length m > 0)
  | _ -> Alcotest.fail "a broken test that passes must fail the run"

let test_skip_never_evaluates () =
  (* the scenario is malformed; skip must win without touching it *)
  let t =
    String.concat "\n"
      [
        "test t"; "skip not today"; "scenario inline"; "---"; "not a document";
        "---";
      ]
  in
  match run_one t with
  | Expect.Runner.Skipped r -> Alcotest.(check string) "reason" "not today" r
  | _ -> Alcotest.fail "expected Skipped"

let test_dangling_reference_is_hard () =
  (* resolution happens before the guarded region: a typo in the path is a
     hard failure even under expect_failure *)
  let t =
    String.concat "\n"
      [
        "test t"; "expect_failure wrong kind of failure";
        "scenario file no/such/file.scn";
      ]
  in
  match run_one t with
  | Expect.Runner.Fail [ Expect.Runner.Hard m ] ->
    Alcotest.(check bool) "names the path" true
      (let sub = "no/such/file.scn" in
       let rec go i =
         i + String.length sub <= String.length m
         && (String.sub m i (String.length sub) = sub || go (i + 1))
       in
       go 0)
  | _ -> Alcotest.fail "expected a hard failure naming the path"

let test_corpus_load_missing_is_error () =
  (* the satellite fix: Corpus.load returns Error, never raises Sys_error *)
  match Fuzz.Corpus.load "definitely/missing.scn" with
  | Error msg ->
    Alcotest.(check bool) "mentions the path" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "loading a missing file must be an Error"

let test_unknown_solver_is_hard () =
  let t = mk ~header:[ "test t"; "solver nosuch" ] [ "expect objective 4" ] in
  match run_one t with
  | Expect.Runner.Fail (Expect.Runner.Hard m :: _) ->
    Alcotest.(check bool) "lists the registry" true
      (String.length m > 0)
  | _ -> Alcotest.fail "expected a hard failure"

let flag_tests =
  [
    Alcotest.test_case "expect_failure captures guarded exceptions" `Quick
      test_xfail_guarded;
    Alcotest.test_case "expect_failure on a completing test fails" `Quick
      test_xfail_on_success_fails;
    Alcotest.test_case "broken and still failing is tolerated" `Quick
      test_broken_still_failing;
    Alcotest.test_case "broken test that passes is a failure" `Quick
      test_broken_now_passes_fails;
    Alcotest.test_case "skip never evaluates the scenario" `Quick
      test_skip_never_evaluates;
    Alcotest.test_case "dangling scenario reference is hard" `Quick
      test_dangling_reference_is_hard;
    Alcotest.test_case "Corpus.load on a missing path is an Error" `Quick
      test_corpus_load_missing_is_error;
    Alcotest.test_case "unknown solver names the registry" `Quick
      test_unknown_solver_is_hard;
  ]

(* --- the committed suite, jobs-invariance, promotion --------------------- *)

(* dune runs tests in _build/default/test; walk up to the repo root. *)
let find_expect_dir () =
  let rec up dir n =
    if n < 0 then None
    else
      let candidate = Filename.concat dir "expect" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 6

let test_committed_suite_green () =
  match find_expect_dir () with
  | None -> () (* no suite checked out — nothing to run *)
  | Some dir -> (
    match Expect.Runner.load_dir dir with
    | Error msg -> Alcotest.failf "expect suite did not load: %s" msg
    | Ok suites ->
      let report = Expect.Runner.run ~jobs:1 suites in
      Alcotest.(check int) "suite is green" 0 (Expect.Runner.exit_code report))

let test_jobs_invariance () =
  match find_expect_dir () with
  | None -> ()
  | Some dir -> (
    match Expect.Runner.load_dir dir with
    | Error msg -> Alcotest.failf "expect suite did not load: %s" msg
    | Ok suites ->
      let r1 = Expect.Runner.render (Expect.Runner.run ~jobs:1 suites) in
      let r4 = Expect.Runner.render (Expect.Runner.run ~jobs:4 suites) in
      Alcotest.(check string) "reports byte-identical for jobs 1 and 4" r1 r4)

let test_promote_roundtrip () =
  (* stale goldens promote to the observed values, and the rewritten file
     re-runs green *)
  let t =
    mk
      ~header:[ "test t"; "solver exact" ]
      [ "expect objective 5"; "expect selected theta1" ]
  in
  let suites = suite_of_string t in
  let report = Expect.Runner.run suites in
  Alcotest.(check int) "stale goldens fail" 1 (Expect.Runner.exit_code report);
  match Expect.Runner.promote suites report with
  | [ (path, text) ] -> (
    Alcotest.(check string) "same path" "unit.rtest" path;
    match Rtest.parse text with
    | Error msg -> Alcotest.failf "promoted file did not parse: %s" msg
    | Ok tests ->
      let report' = Expect.Runner.run [ (path, tests) ] in
      Alcotest.(check int) "promoted suite is green" 0
        (Expect.Runner.exit_code report');
      Alcotest.(check (list (pair string string)))
        "promoting a clean suite is a no-op" []
        (Expect.Runner.promote [ (path, tests) ] report'))
  | _ -> Alcotest.fail "expected exactly one promoted file"

let test_promote_skips_flagged () =
  (* a broken test never promotes, even when its mismatch carries an agreed
     actual value *)
  let t =
    mk
      ~header:[ "test t"; "broken known wrong"; "solver exact" ]
      [ "expect objective 5" ]
  in
  let suites = suite_of_string t in
  let report = Expect.Runner.run suites in
  Alcotest.(check (list (pair string string)))
    "nothing to promote" []
    (Expect.Runner.promote suites report)

let test_filter () =
  let t =
    String.concat "\n"
      [
        mk ~header:[ "test alpha"; "solver exact" ] [ "expect objective 4" ];
        mk ~header:[ "test beta"; "solver exact" ] [ "expect objective 5" ];
      ]
  in
  let suites = suite_of_string t in
  let report = Expect.Runner.run ~filter:"alpha" suites in
  Alcotest.(check int) "only alpha ran" 1 report.Expect.Runner.passed;
  Alcotest.(check int) "beta filtered out" 0 report.Expect.Runner.failed

(* A document with correspondences and no tgds: every front end must
   generate the same candidates from it, so the runner, the daemon and the
   shared loader all report one objective. *)
let tgdless_doc =
  String.concat "\n"
    [
      "source relation emp(name, dept)";
      "target relation staff(name, dept)";
      "correspondence emp.name ~> staff.name";
      "correspondence emp.dept ~> staff.dept";
      "source tuple emp(Alice, DB)";
      "source tuple emp(Bob, ML)";
      "source tuple emp(Carl, DB)";
      "source tuple emp(Dana, OS)";
      "target tuple staff(Alice, DB)";
      "target tuple staff(Bob, ML)";
      "target tuple staff(Carl, DB)";
      "target tuple staff(Dana, OS)";
    ]

let test_tgdless_document_agrees () =
  let shared =
    match Serialize.Parser.parse tgdless_doc with
    | Error _ -> Alcotest.fail "document did not parse"
    | Ok doc ->
      let problem =
        Fuzz.Case.problem
          (Option.get (Fuzz.Case.end_to_end (Fuzz.Case.of_document doc)))
      in
      Alcotest.(check bool) "candidates generated" true
        (Core.Problem.num_candidates problem > 0);
      (* the empty selection leaves all of J unexplained; the generated
         candidates must do better, or an empty pool would go unnoticed *)
      let empty = Array.make (Core.Problem.num_candidates problem) false in
      let impl = Option.get (Core.Solver.find "exact") in
      let best =
        Core.Objective.value problem
          (Core.Solver.solve impl problem).Core.Solver.selection
      in
      Alcotest.(check bool) "candidates explain J" true
        Util.Frac.(best < Core.Objective.value problem empty);
      best
  in
  let daemon =
    let request =
      {
        Server.Protocol.id = Util.Json.Str "d";
        call =
          Server.Protocol.Solve
            {
              Server.Protocol.scenario = Server.Protocol.Inline tgdless_doc;
              solver = "exact";
              seed = None;
              weights = None;
              deadline_ms = None;
              progress = false;
            };
      }
    in
    match Server.Engine.handle (Server.Engine.create ()) request with
    | Server.Protocol.Result { body; _ } ->
      let total =
        Option.bind (Util.Json.member "objective" body)
          (Util.Json.member "total")
      in
      let part name =
        Option.get
          (Option.bind total (fun t ->
               Option.bind (Util.Json.member name t) Util.Json.to_int))
      in
      Util.Frac.make (part "num") (part "den")
    | Server.Protocol.Error { message; _ } ->
      Alcotest.failf "daemon rejected the document: %s" message
  in
  Alcotest.(check string) "daemon = shared loader"
    (Util.Frac.to_string shared) (Util.Frac.to_string daemon);
  let suite =
    String.concat "\n"
      [
        "test tgdless"; "solver exact"; "scenario inline"; "---"; tgdless_doc;
        "---";
        Printf.sprintf "expect objective %d/%d" (Util.Frac.num shared)
          (Util.Frac.den shared);
      ]
  in
  match run_one suite with
  | Expect.Runner.Pass -> ()
  | Expect.Runner.Fail
      [ Expect.Runner.Mismatch { actual = Some (Rtest.Objective f); _ } ] ->
    Alcotest.failf "runner objective %s, daemon and loader %s"
      (Util.Frac.to_string f) (Util.Frac.to_string shared)
  | _ -> Alcotest.fail "the runner did not evaluate the document"

let runner_tests =
  [
    Alcotest.test_case "committed expect/ suite is green" `Quick
      test_committed_suite_green;
    Alcotest.test_case "reports are jobs-invariant" `Quick test_jobs_invariance;
    Alcotest.test_case "promote fixes stale goldens" `Quick
      test_promote_roundtrip;
    Alcotest.test_case "promote skips flagged tests" `Quick
      test_promote_skips_flagged;
    Alcotest.test_case "--filter selects by substring" `Quick test_filter;
    Alcotest.test_case "tgd-less document: runner = daemon = loader" `Quick
      test_tgdless_document_agrees;
  ]

let () =
  Alcotest.run "expect"
    [
      ("roundtrip", roundtrip_tests);
      ("flags", flag_tests);
      ("runner", runner_tests);
    ]
