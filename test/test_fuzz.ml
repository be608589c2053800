(* End-to-end tests of the metamorphic fuzzer itself.

   Four layers:
   1. the generator is a pure function of the seed, and the campaign
      summary is bit-identical across pool sizes;
   2. every oracle family is clean on a modest budget of generated cases
      (the bounded CI campaign runs a larger one);
   3. injected faults — an Eq. 4 evaluator that overcharges multi-cover
      candidates, a SET COVER closed form with the wrong slope — are
      caught, the first failure of a family shrinks to a tiny
      counterexample (<= 4 candidates, <= 6 tuples) and is the only one
      shrunk, survives a corpus round trip and passes its real oracle;
   4. the committed corpus/ directory replays clean, forever. *)

let case_eq = Alcotest.testable Fuzz.Case.pp Fuzz.Case.equal

(* --- generator and campaign determinism -------------------------------- *)

let test_gen_deterministic () =
  for seed = 0 to 60 do
    Alcotest.check case_eq
      (Printf.sprintf "Gen.case ~seed:%d is reproducible" seed)
      (Fuzz.Gen.case ~seed) (Fuzz.Gen.case ~seed)
  done

let test_gen_tags_covered () =
  (* Every generator family shows up within a reasonable seed range, so no
     corner case is silently dead. *)
  let seen = Hashtbl.create 16 in
  for i = 0 to 400 do
    let c = Fuzz.Gen.case ~seed:(Parallel.Seed.derive 42 i) in
    Hashtbl.replace seen c.Fuzz.Case.tag ()
  done;
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Printf.sprintf "tag %s generated" tag)
        true (Hashtbl.mem seen tag))
    Fuzz.Gen.tags

let summary_string s = Format.asprintf "%a" Fuzz.Driver.pp_summary s

let test_jobs_determinism () =
  let run jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Fuzz.Driver.run ~pool ~seed:11 ~budget:120 ())
  in
  let sequential = Fuzz.Driver.run ~seed:11 ~budget:120 () in
  Alcotest.(check string)
    "jobs=1 equals no-pool" (summary_string sequential)
    (summary_string (run 1));
  Alcotest.(check string)
    "jobs=3 equals no-pool" (summary_string sequential)
    (summary_string (run 3));
  (* the campaign-level evaluation cache changes no verdict either *)
  let cache = Cache.create () in
  Alcotest.(check string)
    "cached campaign equals uncached" (summary_string sequential)
    (summary_string (Fuzz.Driver.run ~cache ~seed:11 ~budget:120 ()));
  let stats = Cache.stats cache in
  Alcotest.(check bool)
    "cached campaign actually hit the cache" true
    (stats.Cache.hits > 0 && stats.Cache.misses > 0)

(* --- the oracles are clean on generated cases --------------------------- *)

let test_oracles_clean () =
  let s = Fuzz.Driver.run ~seed:2026 ~budget:200 () in
  List.iter
    (fun (f : Fuzz.Driver.failure) ->
      Alcotest.failf "oracle %s failed on seed %d (%s): %s@.case: %a"
        f.Fuzz.Driver.oracle f.Fuzz.Driver.original.Fuzz.Case.seed
        f.Fuzz.Driver.original.Fuzz.Case.tag f.Fuzz.Driver.detail Fuzz.Case.pp
        (Option.value f.Fuzz.Driver.shrunk ~default:f.Fuzz.Driver.original))
    s.Fuzz.Driver.failures;
  Alcotest.(check bool)
    "every oracle exercised (nonzero pass count)" true
    (List.for_all (fun (_, (p, _, _)) -> p > 0) s.Fuzz.Driver.by_oracle)

(* --- fault injection exercises the whole pipeline ----------------------- *)

let faulty name =
  match List.assoc_opt name Fuzz.Oracle.faults with
  | Some o -> o
  | None -> Alcotest.failf "fault %s not registered" name

let test_fault name =
  let broken = faulty name in
  let s = Fuzz.Driver.run ~oracles:[ broken ] ~seed:7 ~budget:250 () in
  Alcotest.(check bool)
    (name ^ " fault is caught") true
    (s.Fuzz.Driver.failures <> []);
  let shrunk =
    List.filter_map
      (fun (f : Fuzz.Driver.failure) -> f.Fuzz.Driver.shrunk)
      s.Fuzz.Driver.failures
  in
  Alcotest.(check int)
    (name ^ ": only the first failure is shrunk")
    1 (List.length shrunk);
  List.iter
    (fun sh ->
      if Fuzz.Case.num_candidates sh > 4 then
        Alcotest.failf "%s: shrunk case still has %d candidates (%a)" name
          (Fuzz.Case.num_candidates sh) Fuzz.Case.pp sh;
      if Fuzz.Case.num_tuples sh > 6 then
        Alcotest.failf "%s: shrunk case still has %d tuples (%a)" name
          (Fuzz.Case.num_tuples sh) Fuzz.Case.pp sh;
      (* Shrinking preserved the failure… *)
      Alcotest.(check bool)
        (name ^ ": shrunk case still fails the broken oracle")
        true
        (Fuzz.Oracle.is_failure broken sh);
      (* …and the corresponding real oracle passes the shrunk case, so the
         counterexample doubles as a regression seed. *)
      match Fuzz.Oracle.find broken.Fuzz.Oracle.name with
      | None -> Alcotest.failf "no real oracle named %s" broken.Fuzz.Oracle.name
      | Some real ->
        Alcotest.(check bool)
          (name ^ ": real oracle passes the shrunk case")
          false
          (Fuzz.Oracle.is_failure real sh))
    shrunk;
  (* Corpus round trip: save the shrunk failure, load the directory back,
     and replay each entry against the real oracle. *)
  let dir = Printf.sprintf "fuzz-corpus-%s" name in
  let paths = Fuzz.Driver.save_failures ~dir s in
  Alcotest.(check int) (name ^ ": one corpus file per shrunk failure") 1
    (List.length paths);
  match Fuzz.Corpus.load_dir dir with
  | Error msg -> Alcotest.failf "load_dir: %s" msg
  | Ok entries ->
    Alcotest.(check bool) (name ^ ": corpus nonempty") true (entries <> []);
    List.iter
      (fun (e : Fuzz.Corpus.entry) ->
        (match Fuzz.Driver.replay e with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "%s: corpus entry fails its real oracle: %s" name msg);
        match Fuzz.Driver.replay ~oracles:[ broken ] e with
        | Ok () ->
          Alcotest.failf "%s: corpus entry no longer fails the broken oracle"
            name
        | Error _ -> ())
      entries

let test_fault_multi_cover () = test_fault "multi-cover"

let test_fault_closed_form () = test_fault "closed-form"

(* A fault among all the families: the summary shrinks at most one case per
   family and stays the same for any pool size. *)
let test_fault_shrinks_once () =
  let broken = faulty "multi-cover" in
  let oracles =
    List.map
      (fun (o : Fuzz.Oracle.t) ->
        if o.Fuzz.Oracle.name = broken.Fuzz.Oracle.name then broken else o)
      Fuzz.Oracle.all
  in
  let run jobs =
    Parallel.Pool.with_pool ~jobs (fun pool ->
        Fuzz.Driver.run ~pool ~oracles ~seed:7 ~budget:300 ())
  in
  let s = run 1 in
  let failed = List.length s.Fuzz.Driver.failures in
  Alcotest.(check bool) "the fault fails more than one case" true (failed > 1);
  List.iter
    (fun (name, (_, _, f)) ->
      let shrunk =
        List.filter
          (fun (x : Fuzz.Driver.failure) ->
            x.Fuzz.Driver.oracle = name && x.Fuzz.Driver.shrunk <> None)
          s.Fuzz.Driver.failures
      in
      Alcotest.(check int)
        (name ^ ": one shrunk case per failing family")
        (min f 1) (List.length shrunk))
    s.Fuzz.Driver.by_oracle;
  Alcotest.(check string)
    "jobs=4 equals jobs=1" (summary_string s) (summary_string (run 4))

(* --- corpus format round trip ------------------------------------------- *)

let test_corpus_roundtrip () =
  for i = 0 to 80 do
    let case = Fuzz.Gen.case ~seed:(Parallel.Seed.derive 99 i) in
    let entry =
      { Fuzz.Corpus.oracle = "solver-order"; detail = "round trip"; case }
    in
    match Fuzz.Corpus.of_string (Fuzz.Corpus.to_string entry) with
    | Error msg -> Alcotest.failf "case %d does not parse back: %s" i msg
    | Ok e ->
      Alcotest.(check string) "oracle survives" "solver-order" e.Fuzz.Corpus.oracle;
      Alcotest.(check string) "detail survives" "round trip" e.Fuzz.Corpus.detail;
      Alcotest.check case_eq
        (Printf.sprintf "case %d round trips" i)
        case e.Fuzz.Corpus.case
  done

(* --- the committed corpus replays clean --------------------------------- *)

(* dune runs tests in _build/default/test; walk up to the repo root. *)
let find_corpus_dir () =
  let rec up dir n =
    if n < 0 then None
    else
      let candidate = Filename.concat dir "corpus" in
      if Sys.file_exists candidate && Sys.is_directory candidate then
        Some candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (n - 1)
  in
  up (Sys.getcwd ()) 6

let test_replay_corpus () =
  match find_corpus_dir () with
  | None -> () (* no corpus checked out — nothing to replay *)
  | Some dir -> (
    match Fuzz.Corpus.load_dir dir with
    | Error msg -> Alcotest.failf "corpus is malformed: %s" msg
    | Ok entries ->
      List.iter
        (fun (e : Fuzz.Corpus.entry) ->
          match Fuzz.Driver.replay e with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "corpus regression: %s seed %d: %s"
              e.Fuzz.Corpus.oracle e.Fuzz.Corpus.case.Fuzz.Case.seed msg)
        entries)

let () =
  Alcotest.run "fuzz"
    [
      ( "determinism",
        [
          Alcotest.test_case "generator is pure in the seed" `Quick
            test_gen_deterministic;
          Alcotest.test_case "all generator families reachable" `Quick
            test_gen_tags_covered;
          Alcotest.test_case "summary identical across pool sizes" `Quick
            test_jobs_determinism;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "all oracle families clean on 200 cases" `Quick
            test_oracles_clean;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "multi-cover fault shrinks and round-trips" `Quick
            test_fault_multi_cover;
          Alcotest.test_case "closed-form fault shrinks and round-trips" `Quick
            test_fault_closed_form;
          Alcotest.test_case "one shrink per family, any pool size" `Quick
            test_fault_shrinks_once;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "entry text format round-trips" `Quick
            test_corpus_roundtrip;
          Alcotest.test_case "committed corpus replays clean" `Quick
            test_replay_corpus;
        ] );
    ]
