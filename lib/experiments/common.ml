open Util

type solver =
  | Cmd_solver
  | Greedy_solver
  | All_candidates
  | Exact_solver
  | Portfolio_solver

let solver_name = function
  | Cmd_solver -> "CMD"
  | Greedy_solver -> "greedy"
  | All_candidates -> "all"
  | Exact_solver -> "exact"
  | Portfolio_solver -> "portfolio"

(* the Core.Solver registry name; only the CMD display label differs *)
let registry_name = function
  | Cmd_solver -> "cmd"
  | Greedy_solver -> "greedy"
  | All_candidates -> "all"
  | Exact_solver -> "exact"
  | Portfolio_solver -> "portfolio"

module Ctx = struct
  type t = {
    cache : Cache.t option;
    pool : Parallel.Pool.t;
  }

  let create ?cache ?jobs () = { cache; pool = Parallel.Pool.create ?jobs () }

  let cache t = t.cache

  let shutdown t = Parallel.Pool.shutdown t.pool

  let with_ctx ?cache ?jobs f =
    let t = create ?cache ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end

let problem_of_scenario ctx (s : Ibench.Scenario.t) =
  Core.Problem.make ?cache:(Ctx.cache ctx) ~source:s.Ibench.Scenario.instance_i
    ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates

type outcome = {
  selection : bool array;
  objective : Frac.t;
  mapping : Metrics.scores;
  tuples : Metrics.scores;
  runtime_ms : float;
}

let run_solver ctx solver (s : Ibench.Scenario.t) problem =
  let impl =
    match Core.Solver.find (registry_name solver) with
    | Some impl -> impl
    | None -> assert false (* every variant is registered *)
  in
  let selection, runtime_ms =
    Timer.time_ms (fun () ->
        (Core.Solver.solve impl ?cache:(Ctx.cache ctx) problem)
          .Core.Solver.selection)
  in
  {
    selection;
    objective = Core.Objective.value problem selection;
    mapping =
      Metrics.mapping_level ~candidates:s.Ibench.Scenario.candidates
        ~truth:s.Ibench.Scenario.ground_truth selection;
    tuples = Metrics.tuple_level problem selection;
    runtime_ms;
  }

let noise_config ?(rows = 15) ?primitives ~seed ~pi_corresp ~pi_errors
    ~pi_unexplained () =
  let base = Ibench.Config.default in
  {
    base with
    Ibench.Config.primitives =
      Option.value
        ~default:base.Ibench.Config.primitives
        primitives;
    rows_per_relation = rows;
    pi_corresp;
    pi_errors;
    pi_unexplained;
    seed;
  }

(* chunk 1: each task is a whole scenario generate + solve, far heavier
   than the queue overhead *)
let parallel_map ctx f xs =
  Parallel.Pool.parallel_map_list ~chunk:1 ctx.Ctx.pool f xs

let fmt_f v = Printf.sprintf "%.2f" v

let fmt_ms v = Printf.sprintf "%.1f" v
