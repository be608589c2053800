(* A scenario that resolved (the file exists, or is inline) but cannot be
   turned into a problem: parse errors, malformed corpus entries. Typed
   rather than [failwith] so the evaluator can report it as a positioned
   hard failure — never as an [expect_failure] pass, which must come from
   the scenario's semantics, not from the harness failing to read it. *)
exception Scenario_error of string

let scenario_error ~path fmt =
  Printf.ksprintf (fun m -> raise (Scenario_error (path ^ ": " ^ m))) fmt

type failure =
  | Mismatch of {
      index : int;
      expected : Rtest.expectation;
      actual : Rtest.expectation option;
      message : string;
    }
  | Hard of string

type outcome =
  | Pass
  | Fail of failure list
  | Xfail of string
  | Still_broken of string
  | Skipped of string

type result = {
  test : Rtest.test;
  outcome : outcome;
}

type report = {
  files : (string * result list) list;
  passed : int;
  failed : int;
  xfailed : int;
  broken : int;
  skipped : int;
}

(* --- scenario resolution and problem construction ------------------------ *)

(* A resolved scenario source. Resolution (does the referenced file exist?)
   happens before the guarded evaluation region, so a dangling reference is
   a hard failure even under [expect_failure] — an expected failure must
   come from the scenario, not from a typo in its path. *)
type source =
  | Src_inline of string list
  | Src_file of string

let resolve_source ~path scenario =
  match scenario with
  | Rtest.Inline body -> Ok (Src_inline body)
  | Rtest.File f ->
    if not (Filename.is_relative f) then
      if Sys.file_exists f then Ok (Src_file f)
      else Error (Printf.sprintf "scenario file not found: %s" f)
    else begin
      (* relative to the .rtest file's directory, then to its parent (so a
         suite under expect/ can reference corpus/foo.scn at the repo root) *)
      let base = Filename.dirname path in
      let c1 = Filename.concat base f in
      let c2 = Filename.concat (Filename.dirname base) f in
      if Sys.file_exists c1 then Ok (Src_file c1)
      else if Sys.file_exists c2 then Ok (Src_file c2)
      else
        Error
          (Printf.sprintf "scenario file not found: %s (tried %s and %s)" f c1
             c2)
    end

let weights_override (test : Rtest.test) =
  Option.map
    (fun (w1, w2, w3) ->
      { Core.Problem.w_unexplained = w1; w_errors = w2; w_size = w3 })
    test.weights

let problem_of_source ~rtest ?cache (test : Rtest.test) source =
  let weights = weights_override test in
  let loaded =
    match source with
    | Src_inline body ->
      Result.map_error
        (fun msg -> "inline scenario: " ^ msg)
        (Fuzz.Corpus.scenario_of_string (String.concat "\n" body))
    | Src_file path -> Fuzz.Corpus.load_scenario path
  in
  let payload =
    match loaded with
    | Ok payload -> payload
    | Error msg -> scenario_error ~path:rtest "%s" msg
  in
  match payload with
  | Fuzz.Case.Setcover inst -> (
    (* a reduced SET COVER problem is prebuilt; [core] has no chase to act
       on and is ignored *)
    let red = Core.Setcover.reduce inst in
    match weights with
    | Some w -> Core.Problem.with_weights red.Core.Setcover.problem w
    | None -> red.Core.Setcover.problem)
  | Fuzz.Case.Mapping _ | Fuzz.Case.Multihop _ ->
    let m = Option.get (Fuzz.Case.end_to_end payload) in
    Core.Problem.make
      ~weights:(Option.value weights ~default:m.Fuzz.Case.weights)
      ~core:test.core ?cache ~source:m.Fuzz.Case.source ~j:m.Fuzz.Case.j
      m.Fuzz.Case.candidates

(* --- evaluation ---------------------------------------------------------- *)

type run_data = {
  problem : Core.Problem.t;
  selections : (string * bool array) list;  (** per solver, in test order *)
  hard : string list;
  counters : (string * int) list;
}

let pipeline ~rtest (test : Rtest.test) source =
  let build ?cache () = problem_of_source ~rtest ?cache test source in
  let problem = build () in
  let hard = ref [] in
  let add_hard m = hard := m :: !hard in
  let cache =
    if test.cache then begin
      let c = Cache.create () in
      let cold = build ~cache:c () in
      let warm = build ~cache:c () in
      let d = Core.Problem.digest problem in
      if Core.Problem.digest cold <> d then
        add_hard "cache identity: cold cached problem digest differs";
      if Core.Problem.digest warm <> d then
        add_hard "cache identity: warm cached problem digest differs";
      Some (c, cold)
    end
    else None
  in
  let selections =
    List.filter_map
      (fun name ->
        match Core.Solver.find name with
        | None ->
          add_hard
            (Printf.sprintf "unknown solver '%s' (registry: %s)" name
               (String.concat ", " (Core.Solver.names ())));
          None
        | Some impl -> (
          try
            let sel =
              (Core.Solver.solve impl ?seed:test.seed problem)
                .Core.Solver.selection
            in
            (match cache with
            | None -> ()
            | Some (c, cached) ->
              let run () =
                (Core.Solver.solve impl ?seed:test.seed ~cache:c cached)
                  .Core.Solver.selection
              in
              let cold = run () in
              let warm = run () in
              if cold <> sel then
                add_hard
                  (name ^ ": cache identity: cold cached selection differs");
              if warm <> sel then
                add_hard
                  (name ^ ": cache identity: warm cached selection differs"));
            Some (name, sel)
          with Core.Solver_error.Error _ as e ->
            add_hard (name ^ ": " ^ Core.Solver_error.to_string e);
            None))
      test.solvers
  in
  { problem; selections; hard = List.rev !hard; counters = [] }

let has_counter (test : Rtest.test) =
  List.exists
    (function Rtest.Counter _ -> true | _ -> false)
    test.expects

(* Counter tests wrap their whole pipeline (scenario parse, problem builds,
   solver runs) in a reset/enabled telemetry window. Counters are
   process-global, which is why [run] keeps these tests out of the pool
   phase — they must not observe each other. *)
let run_measured ~rtest test source =
  if has_counter test then begin
    let prev = Telemetry.enabled () in
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled prev)
      (fun () ->
        Telemetry.reset ();
        Telemetry.set_enabled true;
        let data = pipeline ~rtest test source in
        { data with counters = Telemetry.counters () })
  end
  else pipeline ~rtest test source

let selection_of_labels (p : Core.Problem.t) labels =
  let sel = Array.make (Array.length p.Core.Problem.candidates) false in
  let missing =
    List.filter
      (fun l ->
        let found = ref false in
        Array.iteri
          (fun i c ->
            if String.equal c.Logic.Tgd.label l then begin
              found := true;
              sel.(i) <- true
            end)
          p.Core.Problem.candidates;
        not !found)
      (List.sort_uniq String.compare labels)
  in
  if missing <> [] then
    Error ("unknown candidate label(s): " ^ String.concat ", " missing)
  else Ok sel

let selected_labels (p : Core.Problem.t) sel =
  let out = ref [] in
  Array.iteri
    (fun i c -> if sel.(i) then out := c.Logic.Tgd.label :: !out)
    p.Core.Problem.candidates;
  List.sort String.compare !out

let show_labels ls = "{" ^ String.concat ", " ls ^ "}"

(* One expectation checked against every listed solver's result. The
   mismatch is promotable only when all solvers agree on the actual. *)
let solverwise ~index ~expected_e ~what ~equal ~show ~wrap expected runs add =
  let bad = List.filter (fun (_, v) -> not (equal v expected)) runs in
  if bad <> [] then begin
    let agreed =
      match runs with
      | (_, v0) :: rest when List.for_all (fun (_, v) -> equal v v0) rest ->
        Some (wrap v0)
      | _ -> None
    in
    let message =
      Printf.sprintf "%s: expected %s, got %s" what (show expected)
        (String.concat "; "
           (List.map
              (fun (name, v) -> Printf.sprintf "%s [%s]" (show v) name)
              bad))
    in
    add (Mismatch { index; expected = expected_e; actual = agreed; message })
  end

let check (test : Rtest.test) data =
  let failures = ref [] in
  let add f = failures := f :: !failures in
  List.iter (fun m -> add (Hard m)) data.hard;
  let fr = Rtest.frac_to_string in
  List.iteri
    (fun index e ->
      match e with
      | Rtest.Value (expected, labels) -> (
        match selection_of_labels data.problem labels with
        | Error msg -> add (Hard msg)
        | Ok sel ->
          let v = Core.Objective.value data.problem sel in
          if not (Util.Frac.equal v expected) then
            add
              (Mismatch
                 {
                   index;
                   expected = e;
                   actual = Some (Rtest.Value (v, labels));
                   message =
                     Printf.sprintf "value of %s: expected %s, got %s"
                       (show_labels labels) (fr expected) (fr v);
                 }))
      | Rtest.Objective expected ->
        let runs =
          List.map
            (fun (name, sel) -> (name, Core.Objective.value data.problem sel))
            data.selections
        in
        solverwise ~index ~expected_e:e ~what:"objective"
          ~equal:Util.Frac.equal ~show:fr
          ~wrap:(fun v -> Rtest.Objective v)
          expected runs add
      | Rtest.Selected labels ->
        let runs =
          List.map
            (fun (name, sel) -> (name, selected_labels data.problem sel))
            data.selections
        in
        solverwise ~index ~expected_e:e ~what:"selected"
          ~equal:(List.equal String.equal)
          ~show:show_labels
          ~wrap:(fun v -> Rtest.Selected v)
          (List.sort String.compare labels)
          runs add
      | Rtest.Counter (name, count) -> (
        match List.assoc_opt name data.counters with
        | None ->
          add (Hard (Printf.sprintf "no such telemetry counter '%s'" name))
        | Some v ->
          if v <> count then
            add
              (Mismatch
                 {
                   index;
                   expected = e;
                   actual = Some (Rtest.Counter (name, v));
                   message =
                     Printf.sprintf "counter %s: expected %d, got %d" name
                       count v;
                 })))
    test.expects;
  List.rev !failures

let eval ~path (test : Rtest.test) =
  match test.flag with
  | Some (Rtest.Skip r) -> Skipped r
  | flag -> (
    match resolve_source ~path test.scenario with
    | Error msg -> Fail [ Hard msg ]
    | Ok source -> (
      match run_measured ~rtest:path test source with
      | data -> (
        let failures = check test data in
        match flag with
        | Some (Rtest.Expect_failure _) ->
          Fail [ Hard "expected the evaluation to fail, but it completed" ]
        | Some (Rtest.Broken r) ->
          if failures = [] then
            Fail [ Hard "broken test passed; remove the 'broken' flag" ]
          else Still_broken r
        | Some (Rtest.Skip _) | None ->
          if failures = [] then Pass else Fail failures)
      | exception Scenario_error msg ->
        (* hard even under expect_failure: the harness could not read the
           scenario, so the "failure" would not be the scenario's *)
        Fail [ Hard msg ]
      | exception e -> (
        match flag with
        | Some (Rtest.Expect_failure r) -> Xfail r
        | _ -> Fail [ Hard ("exception: " ^ Printexc.to_string e) ])))

(* --- suite driving ------------------------------------------------------- *)

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | names ->
    let names =
      names |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".rtest")
      |> List.sort String.compare
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest -> (
        let path = Filename.concat dir f in
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error msg -> Error msg
        | text -> (
          match Rtest.parse text with
          | Ok tests -> go ((path, tests) :: acc) rest
          | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))
    in
    go [] names

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  if m = 0 then true
  else begin
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  end

let run ?(jobs = 1) ?filter suites =
  let keep (t : Rtest.test) =
    match filter with None -> true | Some f -> contains ~sub:f t.name
  in
  let flat =
    Array.of_list
      (List.concat_map
         (fun (path, tests) ->
           List.filter_map
             (fun t -> if keep t then Some (path, t) else None)
             tests)
         suites)
  in
  let n = Array.length flat in
  let outcomes = Array.make n Pass in
  (* counter tests run sequentially after the pool phase: telemetry counters
     are process-global, so concurrent tests would observe each other *)
  let counter_phase i =
    let _, (t : Rtest.test) = flat.(i) in
    has_counter t
    && match t.flag with Some (Rtest.Skip _) -> false | _ -> true
  in
  let indices = List.init n Fun.id in
  let pool_idx =
    Array.of_list (List.filter (fun i -> not (counter_phase i)) indices)
  in
  let seq_idx = List.filter counter_phase indices in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let res =
        Parallel.Pool.parallel_map pool
          (fun i ->
            let path, t = flat.(i) in
            eval ~path t)
          pool_idx
      in
      Array.iteri (fun k i -> outcomes.(i) <- res.(k)) pool_idx);
  List.iter
    (fun i ->
      let path, t = flat.(i) in
      outcomes.(i) <- eval ~path t)
    seq_idx;
  let cursor = ref 0 in
  let files =
    List.map
      (fun (path, tests) ->
        let results =
          List.filter_map
            (fun t ->
              if keep t then begin
                let o = outcomes.(!cursor) in
                incr cursor;
                Some { test = t; outcome = o }
              end
              else None)
            tests
        in
        (path, results))
      suites
  in
  let count p =
    List.fold_left
      (fun acc (_, rs) ->
        acc + List.length (List.filter (fun r -> p r.outcome) rs))
      0 files
  in
  {
    files;
    passed = count (function Pass -> true | _ -> false);
    failed = count (function Fail _ -> true | _ -> false);
    xfailed = count (function Xfail _ -> true | _ -> false);
    broken = count (function Still_broken _ -> true | _ -> false);
    skipped = count (function Skipped _ -> true | _ -> false);
  }

(* --- reporting ----------------------------------------------------------- *)

let status_of = function
  | Pass -> "PASS"
  | Fail _ -> "FAIL"
  | Xfail _ -> "XFAIL"
  | Still_broken _ -> "BROKEN"
  | Skipped _ -> "SKIP"

let render report =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  List.iteri
    (fun i (path, results) ->
      if i > 0 then line "";
      line "== %s" path;
      List.iter
        (fun r ->
          let note =
            match r.outcome with
            | Xfail reason | Still_broken reason | Skipped reason ->
              Printf.sprintf " (%s)" reason
            | Pass | Fail _ -> ""
          in
          line "%-6s %s%s" (status_of r.outcome) r.test.Rtest.name note;
          match r.outcome with
          | Fail fs ->
            List.iter
              (fun f ->
                let msg =
                  match f with Mismatch m -> m.message | Hard m -> m
                in
                List.iter
                  (fun l -> line "       %s" l)
                  (String.split_on_char '\n' msg))
              fs
          | _ -> ())
        results)
    report.files;
  line "";
  line "summary: %d passed, %d failed, %d xfailed, %d still-broken, %d skipped"
    report.passed report.failed report.xfailed report.broken report.skipped;
  Buffer.contents buf

let exit_code report = if report.failed > 0 then 1 else 0

(* --- promotion ----------------------------------------------------------- *)

let promotable r =
  match r.outcome with
  | Fail fs ->
    r.test.Rtest.flag = None
    && fs <> []
    && List.for_all
         (function
           | Mismatch { actual = Some _; _ } -> true
           | Mismatch { actual = None; _ } | Hard _ -> false)
         fs
  | Pass | Xfail _ | Still_broken _ | Skipped _ -> false

let promote suites report =
  List.filter_map
    (fun (path, tests) ->
      match List.assoc_opt path report.files with
      | None -> None
      | Some results ->
        let changed = ref false in
        let tests' =
          List.map
            (fun (t : Rtest.test) ->
              let r =
                List.find_opt
                  (fun r -> String.equal r.test.Rtest.name t.name)
                  results
              in
              match r with
              | Some ({ outcome = Fail fs; _ } as r) when promotable r ->
                let arr = Array.of_list t.expects in
                List.iter
                  (function
                    | Mismatch { index; actual = Some a; _ } -> arr.(index) <- a
                    | Mismatch { actual = None; _ } | Hard _ -> ())
                  fs;
                changed := true;
                { t with expects = Array.to_list arr }
              | _ -> t)
            tests
        in
        if !changed then Some (path, Rtest.print tests') else None)
    suites
