(* The mapping-selection CLI: load a scenario (through Fuzz.Corpus, like the
   daemon and the rtest runner) or generate one with iBench, and run a
   selection solver on it. Solvers are resolved by name
   through the Core.Solver registry, so a newly registered solver is
   immediately selectable here. *)

open Cmdliner

let run_problem ~solver ~jobs ~cache ~weights ~candidates ~source ~j ~truth =
  let problem = Core.Problem.make ?cache ~weights ~source ~j candidates in
  (* every solver, cmd included, goes through the registry wrapper; the
     outcome carries the fractional ADMM solution (when the winning solver
     produced one and the selection was not served from the cache) for the
     per-candidate display *)
  let outcome =
    try
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Core.Solver.solve solver ~pool ?cache problem)
    with Core.Solver_error.Error _ as e ->
      Cli.die "%s" (Core.Solver_error.to_string e)
  in
  let selection = outcome.Core.Solver.selection in
  Format.printf "candidates (%d):@." (List.length candidates);
  List.iteri
    (fun i tgd ->
      let context =
        match (outcome.Core.Solver.fractional, Core.Solver.name solver) with
        | Some f, _ -> Printf.sprintf " in=%.3f" f.(i)
        | None, "all" ->
          (* 'all' does not optimise anything, so surface each candidate's
             objective contribution instead of a solver diagnostic *)
          let s = problem.Core.Problem.stats.(i) in
          Printf.sprintf " errors=%d size=%d" (Cover.error_count s)
            s.Cover.size
        | None, _ -> ""
      in
      Format.printf "  [%s]%s %a@."
        (if selection.(i) then "x" else " ")
        context Logic.Tgd.pp tgd)
    candidates;
  let b = Core.Objective.breakdown problem selection in
  Format.printf "objective: %a@." Core.Objective.pp_breakdown b;
  Format.printf "tuple-level: %a@." Metrics.pp (Metrics.tuple_level problem selection);
  match truth with
  | [] -> ()
  | _ :: _ ->
    Format.printf "mapping-level vs ground truth: %a@." Metrics.pp
      (Metrics.mapping_level ~candidates ~truth selection)

(* The end-to-end selection problem of a loaded or generated scenario. *)
let end_to_end ~what payload =
  match Fuzz.Case.end_to_end payload with
  | Some m -> m
  | None ->
    Cli.die "%s is a SET COVER case; cmd_select solves mapping selection" what

(* A chain is selected over the composition of its per-hop candidate pools
   against its final observed instance. The ground truth for the
   mapping-level metric is the composition of the per-hop truths. *)
let run_chain ~solver ~jobs ~cache ~weights ~truth_pools
    (mh : Fuzz.Case.multihop) =
  List.iteri
    (fun i (pool, _) ->
      Format.printf "hop %d: %d candidate tgds@." (i + 1) (List.length pool))
    mh.Fuzz.Case.hops;
  let m = end_to_end ~what:"the chain" (Fuzz.Case.Multihop mh) in
  Format.printf "composed: %d end-to-end candidates@."
    (List.length m.Fuzz.Case.candidates);
  run_problem ~solver ~jobs ~cache ~weights ~candidates:m.Fuzz.Case.candidates
    ~source:m.Fuzz.Case.source ~j:m.Fuzz.Case.j
    ~truth:(Algebra.compose_all truth_pools)

(* Multi-hop mode: generate an S -> T -> U chain with iBench. *)
let run_multihop ~solver ~jobs ~cache ~weights ~seed ~rows ~hops ~pi_corresp
    ~pi_errors ~pi_unexplained =
  let config =
    {
      Ibench.Multihop.default with
      Ibench.Multihop.rows;
      hops;
      pi_corresp;
      pi_errors;
      pi_unexplained;
      seed;
    }
  in
  (match Ibench.Multihop.validate config with
  | Ok () -> ()
  | Error msg -> Cli.die "%s" msg);
  let s = Ibench.Multihop.generate config in
  Format.printf "%a@." Ibench.Multihop.pp_summary s;
  run_chain ~solver ~jobs ~cache ~weights
    ~truth_pools:
      (List.map
         (fun (h : Ibench.Multihop.hop) -> h.Ibench.Multihop.ground_truth)
         s.Ibench.Multihop.hops)
    (Fuzz.Case.of_multihop ~weights s)

let select file scenario seed solver jobs cache trace hops pi_corresp pi_errors
    pi_unexplained rows w1 w2 w3 =
  Cli.install_trace trace;
  let cache = Cli.resolve_cache cache in
  let solver =
    match Core.Solver.find solver with
    | Some impl -> impl
    | None ->
      Cli.die "unknown solver %s (known: %s)" solver
        (String.concat ", " (Core.Solver.names ()))
  in
  (* no weight flag keeps the scenario's own weights; any flag overrides
     all three, 1 standing for an omitted one *)
  let override =
    match (w1, w2, w3) with
    | None, None, None -> None
    | _ ->
      let w = Option.value ~default:1 in
      Some { Core.Problem.w_unexplained = w w1; w_errors = w w2; w_size = w w3 }
  in
  let weights = Option.value override ~default:Core.Problem.default_weights in
  let jobs = Cli.resolve_jobs jobs in
  if hops > 1 && (scenario <> None || file <> None) then
    Cli.die "--hops generates its own chain; drop --file/--scenario";
  if hops > 1 then
    run_multihop ~solver ~jobs ~cache ~weights ~seed ~rows ~hops ~pi_corresp
      ~pi_errors ~pi_unexplained
  else
  match scenario, file with
  | Some name, _ when String.lowercase_ascii name = "pipeline" ->
    (* the hand-crafted two-hop chain: compose the per-hop pools and select
       end-to-end, like --hops but deterministic and human-readable *)
    Format.printf "scenario pipeline: %s@." Scenarios.Pipeline.description;
    run_chain ~solver ~jobs ~cache ~weights
      ~truth_pools:Scenarios.Pipeline.truth_pools
      {
        Fuzz.Case.initial = Scenarios.Pipeline.initial;
        hops = Scenarios.Pipeline.hops;
        hop_weights = weights;
      }
  | Some name, _ -> (
    match Scenarios.Zoo.find name with
    | None ->
      Printf.eprintf "unknown scenario %s; known: %s\n" name
        (String.concat ", " (Scenarios.Zoo.names ()));
      exit 2
    | Some entry ->
      Format.printf "scenario %s: %s@." entry.Scenarios.Zoo.name
        entry.Scenarios.Zoo.description;
      let doc = entry.Scenarios.Zoo.doc in
      run_problem ~solver ~jobs ~cache ~weights
        ~candidates:doc.Serialize.Document.tgds
        ~source:doc.Serialize.Document.instance_i
        ~j:doc.Serialize.Document.instance_j
        ~truth:entry.Scenarios.Zoo.ground_truth)
  | None, Some path -> (
    match Fuzz.Corpus.load_scenario path with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok payload ->
      let m = end_to_end ~what:path payload in
      run_problem ~solver ~jobs ~cache
        ~weights:(Option.value override ~default:m.Fuzz.Case.weights)
        ~candidates:m.Fuzz.Case.candidates ~source:m.Fuzz.Case.source
        ~j:m.Fuzz.Case.j ~truth:[])
  | None, None ->
    let config =
      {
        Ibench.Config.default with
        Ibench.Config.seed;
        rows_per_relation = rows;
        pi_corresp;
        pi_errors;
        pi_unexplained;
      }
    in
    let s = Ibench.Generator.generate config in
    Format.printf "%a@." Ibench.Scenario.pp_summary s;
    run_problem ~solver ~jobs ~cache ~weights
      ~candidates:s.Ibench.Scenario.candidates
      ~source:s.Ibench.Scenario.instance_i ~j:s.Ibench.Scenario.instance_j
      ~truth:s.Ibench.Scenario.ground_truth

(* The exact objective is native-int arithmetic that raises rather than
   wraps; large weights make it unrepresentable, which is bad input. *)
let run file scenario seed solver jobs cache trace hops pi_corresp pi_errors
    pi_unexplained rows w1 w2 w3 =
  try
    select file scenario seed solver jobs cache trace hops pi_corresp pi_errors
      pi_unexplained rows w1 w2 w3
  with Util.Frac.Overflow ->
    prerr_endline
      "cmd_select: the objective overflows native integers; use smaller weights";
    exit 1

let file =
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Scenario to load: a $(b,.scn) corpus entry or a scenario \
               document (candidates are generated from its correspondences \
               when it lists no tgds). A scenario is generated when omitted.")

let scenario =
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
         ~doc:"A named scenario from the zoo (appendix, bibliography, hr, \
               flights), or 'pipeline' — the two-hop chain selected over \
               its end-to-end composition.")

let seed = Cli.seed ~default:42 ~doc:"Generator seed."

let solver =
  Arg.(value & opt string "cmd" & info [ "s"; "solver" ] ~docv:"NAME"
         ~doc:"Solver from the Core.Solver registry: cmd, greedy, local, \
               exact, anneal, all, or portfolio (race the roster, first \
               provably optimal or best objective wins).")

let hops =
  Arg.(value & opt int 1 & info [ "hops" ] ~docv:"N"
         ~doc:"Generate a multi-hop chain of N mappings (2 or 3), compose \
               them end-to-end with the mapping algebra and select over the \
               composed pool. 1 (default) keeps the single-hop generator.")

let pi name doc = Arg.(value & opt int 0 & info [ name ] ~doc)

let rows = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Source rows per relation.")

let weight name doc =
  Arg.(value & opt (some int) None & info [ name ] ~docv:"W"
         ~doc:(doc ^ " With none of --w1/--w2/--w3, the scenario's own \
                     weights apply (a corpus entry's recorded ones, else \
                     1 1 1); with any of them, an omitted one is 1."))

let cmd =
  let doc = "Collective, probabilistic mapping selection" in
  Cmd.v
    (Cmd.info "cmd_select" ~doc)
    Term.(
      const run $ file $ scenario $ seed $ solver $ Cli.jobs $ Cli.cache
      $ Cli.trace $ hops
      $ pi "pi-corresp" "Percent of target relations with random correspondences."
      $ pi "pi-errors" "Percent of non-certain error tuples deleted from J."
      $ pi "pi-unexplained" "Percent of non-certain unexplained tuples added to J."
      $ rows
      $ weight "w1" "Weight of unexplained tuples."
      $ weight "w2" "Weight of error tuples."
      $ weight "w3" "Weight of mapping size.")

let () = exit (Cmd.eval cmd)
