(* Stage-attributed selection benchmark.

   One run:    pipeline.exe --workload NAME --seed N --seconds S --trace 0|1
               prints one JSON result line: end-to-end metrics untraced,
               per-layer metrics traced.
   Full run:   pipeline.exe --seed N [--seconds S] [--json FILE]
               runs every workload in fresh processes, three interleaved
               rounds untraced and then three traced, checks every output
               and prints every metric.
   Comparison: pipeline.exe --compare A.json[,A2.json...] B.json[,...]
   Smoke test: pipeline.exe --smoke, a few checked selections per workload
               and no timing. *)

open Measure

let workload = ref ""
let seed = ref 11
let seconds = ref nan
let trace = ref 0
let raw = ref false
let json_out = ref ""
let compare_with = ref None
let smoke = ref false
let golden = ref "bench/pipeline/golden"
let benchmark = ref "BENCHMARK.json"
let serve_bin = ref "_build/default/bin/cmd_serve.exe"

let specs =
  let first = ref "" in
  [
    ("--workload", Arg.Set_string workload, "NAME run one workload once");
    ("--seed", Arg.Set_int seed, "N shifts every scenario seed (default 11)");
    ( "--seconds",
      Arg.Set_float seconds,
      "S timed phase of a run (default 20), or of a full run's round (default 4)" );
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--raw", Arg.Set raw, " print the raw record a full run collects");
    ("--json", Arg.Set_string json_out, "FILE write the full run's report");
    ( "--compare",
      Arg.Tuple
        [
          Arg.Set_string first;
          Arg.String (fun b -> compare_with := Some (!first, b));
        ],
      "A B compare two comma-separated lists of full-run reports" );
    ("--smoke", Arg.Set smoke, " a few checked selections per workload, no timing");
    ("--golden", Arg.Set_string golden, "FILE pinned outputs digests");
    ("--benchmark", Arg.Set_string benchmark, "FILE BENCHMARK.json, for bounds");
    ("--serve-bin", Arg.Set_string serve_bin, "PATH the cmd_serve executable");
  ]

let usage =
  "pipeline.exe [--workload NAME --seed N --seconds S --trace 0|1] [--smoke] \
   [--compare A B]"

let die fmt =
  Printf.ksprintf
    (fun m ->
      log "%s" m;
      exit 2)
    fmt

(* Pinned digests: lines "<seed> <workload> <digest>". *)
let golden_digest w s =
  match open_in !golden with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ gs; gw; d ] when gs = string_of_int s && gw = w -> Some d
        | _ -> scan ())
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* One workload run; returns its result and its failure count, golden
   digest included. *)
let run_one (w : Workload.t) ~seed ~budget ~trace =
  let r =
    match w.Workload.kind with
    | Workload.Serve ->
      Serve.run w ~seed ~budget ~trace ~bin:!serve_bin
    | Workload.Cold _ | Workload.Sweep -> Inproc.run w ~seed ~budget ~trace
  in
  log "%s: outputs_digest %s" w.Workload.name r.digest;
  let c = checks () in
  (match golden_digest w.Workload.name seed with
  | Some d when d <> r.digest -> fail c "%s: golden digest is %s" w.Workload.name d
  | _ -> ());
  if (not trace) && Array.length r.samples_ms = 0 then
    fail c "%s: no selection completed" w.Workload.name;
  (r, r.failed + c.failures)

(* --- one run --------------------------------------------------------------------- *)

let single name =
  let w =
    match Workload.find name with Some w -> w | None -> die "unknown workload %S" name
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let secs = if Float.is_nan !seconds then 20. else !seconds in
  if secs <= 0. then die "--seconds must be positive";
  let trace = !trace = 1 in
  let r, failed = run_one w ~seed:!seed ~budget:(Seconds secs) ~trace in
  if (not trace) && Array.length r.samples_ms < 100 then
    log "%s: only %d samples; select_p90_ms wants 100" w.Workload.name
      (Array.length r.samples_ms);
  print_endline
    (if !raw then Report.raw_line r ~failed else Report.result_line r ~trace ~failed);
  exit (if failed = 0 then 0 else 1)

(* --- the full run ---------------------------------------------------------------- *)

(* A child run of this executable; its last stdout line is the raw record. *)
let child (w : Workload.t) ~round_s ~trace =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--workload"; w.Workload.name; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" round_s; "--trace"; (if trace then "1" else "0"); "--raw";
      "--golden"; !golden; "--serve-bin"; !serve_bin;
    |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
  | last :: _ -> (
    match Util.Json.parse last with
    | Ok j -> Report.of_raw j
    | Error _ -> failwith ("unreadable child output: " ^ last))
  | [] -> failwith (w.Workload.name ^ ": child run printed nothing")

let full () =
  let round_s = if Float.is_nan !seconds then 4. else !seconds in
  let n x = Util.Json.Num (float_of_int x) in
  let header =
    Util.Json.Obj
      [
        ("nproc", n (Lazy.force nproc));
        ("domains", n (Domain.recommended_domain_count ()));
        ("ocaml", Util.Json.Str Sys.ocaml_version);
        ("seed", n !seed);
        ("connections", n Serve.connections);
        ("jobs", n Serve.jobs);
        ("round_s", Util.Json.Num round_s);
      ]
  in
  (* rounds interleave the workloads, so a drift of the machine over the
     run spreads across all of them instead of landing on one *)
  let phase trace =
    let by_round =
      List.init 3 (fun _ ->
          List.map (fun w -> (w, child w ~round_s ~trace)) Workload.all)
    in
    fun w -> List.map (List.assq w) by_round
  in
  let untraced = phase false in
  let traced = phase true in
  let reports =
    List.map
      (fun w -> { Report.w; untraced = untraced w; traced = traced w })
      Workload.all
  in
  let c = checks () in
  List.iter
    (fun (r : Report.rounds) ->
      let all = r.Report.untraced @ r.Report.traced in
      c.failures <- List.fold_left (fun a x -> a + x.failed) c.failures all;
      let d = (List.hd all).digest in
      if List.exists (fun x -> x.digest <> d) all then
        fail c "%s: outputs_digest differs between runs" r.Report.w.Workload.name)
    reports;
  let j = Report.report_json ~header reports in
  Report.print_report j;
  if !json_out <> "" then
    Out_channel.with_open_text !json_out (fun oc ->
        output_string oc (Util.Json.to_string_pretty j);
        output_char oc '\n');
  exit (if c.failures = 0 then 0 else 1)

(* --- smoke ----------------------------------------------------------------------- *)

(* BENCHMARK.json must name exactly this program's workloads and metrics. *)
let check_benchmark_file c =
  let module J = Util.Json in
  match J.load !benchmark with
  | Error e -> fail c "%s" e
  | Ok j ->
    let items key = Option.value ~default:[] (Option.bind (J.member key j) J.to_list) in
    let str k x = Option.value ~default:"" (Option.bind (J.member k x) J.to_str) in
    let expect what got want =
      if got <> want then
        fail c "%s: BENCHMARK.json has [%s], the program [%s]" what
          (String.concat " " got) (String.concat " " want)
    in
    expect "workloads"
      (List.map (str "name") (items "workloads"))
      (List.map (fun w -> w.Workload.name) Workload.all);
    let table key metrics =
      let better m = if m.Spec.higher_is_better then "higher" else "lower" in
      expect key
        (List.map
           (fun x -> String.concat ":" [ str "name" x; str "unit" x; str "better" x ])
           (items key))
        (List.map
           (fun m -> String.concat ":" [ m.Spec.name; m.Spec.unit; better m ])
           metrics)
    in
    table "end_to_end" Spec.end_to_end;
    table "per_layer" Spec.layers

let run_smoke () =
  let c = checks () in
  check_benchmark_file c;
  List.iter
    (fun (w : Workload.t) ->
      let budget =
        match w.Workload.kind with
        | Workload.Sweep -> Units 1
        | Workload.Serve -> Units 8
        | Workload.Cold _ -> Units digest_inputs
      in
      let r, failed = run_one w ~seed:!seed ~budget ~trace:true in
      c.failures <- c.failures + failed;
      if List.map fst r.layers <> Spec.layer_names then
        fail c "%s: per-layer metrics differ from the metric table" w.Workload.name)
    Workload.all;
  if c.failures > 0 then begin
    log "smoke: %d failures" c.failures;
    exit 1
  end;
  log "smoke: ok"

let () =
  Arg.parse specs (fun a -> die "unexpected argument %S" a) usage;
  match (!compare_with, !workload, !smoke) with
  | Some (a, b), _, _ ->
    exit (if Report.compare ~benchmark:!benchmark a b > 0 then 1 else 0)
  | None, "", true -> run_smoke ()
  | None, "", false -> full ()
  | None, name, _ -> single name
