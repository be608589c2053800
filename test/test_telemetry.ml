(* The telemetry layer's contract, tested from the outside:

   1. observation never changes results — every solver in the Core.Solver
      registry returns a bit-identical selection with telemetry enabled
      (no-op sink) and disabled;
   2. counter totals and span counts are a pure function of the workload,
      not of the pool size — a fuzz campaign traced with 1 worker and with
      4 workers writes JSONL that aggregates to the same totals;
   3. the primitives themselves behave: counters are monotone and
      registration is idempotent, spans nest and survive exceptions,
      [reset] zeroes values but keeps registrations.

   Telemetry state is global, so every test leaves it disabled with all
   sinks detached. *)

open Core

let with_telemetry ~enabled f =
  Telemetry.reset ();
  Telemetry.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.set_human None;
      Telemetry.set_jsonl None;
      Telemetry.reset ())
    f

(* --- primitives -------------------------------------------------------- *)

let unit_tests =
  [
    Alcotest.test_case "counters count only when enabled" `Quick (fun () ->
        with_telemetry ~enabled:false (fun () ->
            let c = Telemetry.Counter.make "test.unit_counter" in
            Telemetry.Counter.incr c;
            Telemetry.Counter.add c 10;
            Alcotest.(check int) "disabled: untouched" 0
              (Telemetry.Counter.value c);
            Telemetry.set_enabled true;
            Telemetry.Counter.incr c;
            Telemetry.Counter.add c 10;
            Telemetry.Counter.add c (-5);
            Alcotest.(check int) "enabled: monotone" 11
              (Telemetry.Counter.value c)));
    Alcotest.test_case "make is idempotent per name" `Quick (fun () ->
        with_telemetry ~enabled:true (fun () ->
            let a = Telemetry.Counter.make "test.same" in
            let b = Telemetry.Counter.make "test.same" in
            Telemetry.Counter.incr a;
            Telemetry.Counter.incr b;
            Alcotest.(check int) "one cell" 2 (Telemetry.Counter.value a)));
    Alcotest.test_case "reset zeroes values, keeps registrations" `Quick
      (fun () ->
        with_telemetry ~enabled:true (fun () ->
            let c = Telemetry.Counter.make "test.reset_me" in
            Telemetry.Counter.add c 3;
            Telemetry.with_span "test.reset_span" ignore;
            Telemetry.reset ();
            Telemetry.set_enabled true;
            Alcotest.(check int) "zeroed" 0 (Telemetry.Counter.value c);
            Alcotest.(check bool)
              "still listed" true
              (List.mem_assoc "test.reset_me" (Telemetry.counters ()));
            Alcotest.(check (list (pair string int)))
              "span aggregates cleared" []
              (Telemetry.span_counts ())));
    Alcotest.test_case "spans nest and survive exceptions" `Quick (fun () ->
        with_telemetry ~enabled:true (fun () ->
            (try
               Telemetry.with_span "test.outer" (fun () ->
                   Telemetry.with_span "test.inner" ignore;
                   Telemetry.with_span "test.inner" ignore;
                   failwith "boom")
             with Failure _ -> ());
            (* the raising span still closed, so a fresh one nests at
               depth 0 again rather than under a leaked parent *)
            Telemetry.with_span "test.outer" ignore;
            Alcotest.(check (list (pair string int)))
              "span counts" [ ("test.inner", 2); ("test.outer", 2) ]
              (Telemetry.span_counts ())));
    Alcotest.test_case "disabled spans record nothing" `Quick (fun () ->
        with_telemetry ~enabled:false (fun () ->
            Telemetry.with_span "test.ghost" ignore;
            Alcotest.(check (list (pair string int)))
              "empty" [] (Telemetry.span_counts ())));
  ]

(* --- observation never changes results --------------------------------- *)

(* Exercised per registered solver on random selection problems: the
   generator keeps problems tiny (≤ 6 candidates), so even [exact] is
   cheap and no solver needs a size guard here. *)
let transparency_tests =
  let open QCheck2 in
  List.map
    (fun impl ->
      let name = Solver.name impl in
      Test.make
        ~name:(Printf.sprintf "%s is bit-identical with telemetry on/off" name)
        ~count:
          (match name with "cmd" | "portfolio" -> 15 | _ -> 50)
        Fixtures.selection_problem_gen
        (fun p ->
          let off =
            with_telemetry ~enabled:false (fun () ->
                Solver.solve impl ~seed:3 p)
          in
          let on =
            with_telemetry ~enabled:true (fun () ->
                Solver.solve impl ~seed:3 p)
          in
          off = on))
    Solver.all
  |> List.map QCheck_alcotest.to_alcotest

(* --- jobs-invariant aggregation over JSONL ----------------------------- *)

(* Minimal extractors for the repo's own JSONL schema; no JSON library in
   the dependency cone, and these lines are machine-generated with known
   shapes. *)
let jsonl_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line -> go (line :: acc)
  in
  go []

let counter_totals lines =
  List.filter_map
    (fun line ->
      try
        Some
          (Scanf.sscanf line {|{"type":"counter","name":%S,"value":%d}|}
             (fun n v -> (n, v)))
      with Scanf.Scan_failure _ | End_of_file -> None)
    lines
  |> List.sort compare

let span_counts_of lines =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Scanf.sscanf line {|{"type":"span","name":%S|} Fun.id with
      | name ->
        Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      | exception (Scanf.Scan_failure _ | End_of_file) -> ())
    lines;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The record types of a trace, sorted and deduplicated; a line that is
   not a JSON object with a leading "type" reads as "?". *)
let record_types lines =
  List.sort_uniq compare
    (List.map
       (fun line ->
         try Scanf.sscanf line {|{"type":%S|} Fun.id
         with Scanf.Scan_failure _ | End_of_file -> "?")
       lines)

let traced_campaign ~jobs path =
  with_telemetry ~enabled:true (fun () ->
      let oc = open_out path in
      Telemetry.set_jsonl (Some oc);
      let summary =
        Parallel.Pool.with_pool ~jobs (fun pool ->
            Fuzz.Driver.run ~pool ~oracles:Fuzz.Oracle.all ~seed:11 ~budget:15
              ())
      in
      Telemetry.flush ();
      Telemetry.set_jsonl None;
      close_out oc;
      summary)

let jobs_invariance_tests =
  [
    Alcotest.test_case "fuzz campaign traces aggregate identically for 1 and 4 jobs"
      `Slow (fun () ->
        let seq = Filename.temp_file "trace_seq" ".jsonl" in
        let par = Filename.temp_file "trace_par" ".jsonl" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove seq;
            Sys.remove par)
          (fun () ->
            let s1 = traced_campaign ~jobs:1 seq in
            let s4 = traced_campaign ~jobs:4 par in
            Alcotest.(check int)
              "campaign results identical" s1.Fuzz.Driver.passed
              s4.Fuzz.Driver.passed;
            let seq_lines = jsonl_lines seq and par_lines = jsonl_lines par in
            let nonzero totals = List.filter (fun (_, v) -> v <> 0) totals in
            Alcotest.(check (list (pair string int)))
              "counter totals" (counter_totals seq_lines)
              (counter_totals par_lines);
            Alcotest.(check (list (pair string int)))
              "span counts" (span_counts_of seq_lines)
              (span_counts_of par_lines);
            (* a trace holds spans, counters and span aggregates only *)
            List.iter
              (fun lines ->
                List.iter
                  (fun ty ->
                    Alcotest.(check bool)
                      ("record type " ^ ty) true
                      (List.mem ty [ "span"; "counter"; "span-agg" ]))
                  (record_types lines))
              [ seq_lines; par_lines ];
            (* the campaign actually exercised the instrumented layers *)
            Alcotest.(check bool)
              "some counters moved" true
              (nonzero (counter_totals seq_lines) <> []);
            let counted name =
              List.exists
                (fun (n, v) -> String.equal n name && v > 0)
                (counter_totals seq_lines)
            in
            Alcotest.(check bool) "pool tasks counted" true (counted "pool.tasks");
            (* the coverage fold's work counters are among the compared
               totals *)
            Alcotest.(check bool)
              "cover rows probed" true
              (counted "cover.rows_probed");
            Alcotest.(check bool)
              "cover configurations" true
              (counted "cover.configurations");
            (* and so are candidate generation's *)
            Alcotest.(check bool) "candgen pairs" true (counted "candgen.pairs");
            (* and so are the bytes key derivation hashes *)
            Alcotest.(check bool)
              "cache key bytes" true
              (counted "cache.key_bytes");
            List.iter
              (fun name ->
                Alcotest.(check bool)
                  name true
                  (List.mem_assoc name (counter_totals seq_lines)))
              [ "candgen.duplicates"; "candgen.renaming_checks" ]));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("primitives", unit_tests);
      ("transparency", transparency_tests);
      ("jobs-invariance", jobs_invariance_tests);
    ]
