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
    jobs : int;
    mutex : Mutex.t;
    mutable pool_slot : Parallel.Pool.t option;
    mutable closed : bool;
  }

  let create ?cache ?jobs () =
    let jobs =
      match jobs with
      | None -> Parallel.Pool.default_jobs ()
      | Some j ->
        if j < 1 then invalid_arg "Experiments.Common.Ctx.create: jobs must be >= 1";
        j
    in
    {
      cache;
      jobs;
      mutex = Mutex.create ();
      pool_slot = None;
      closed = false;
    }

  let cache t = t.cache

  let jobs t = t.jobs

  let pool t =
    Mutex.lock t.mutex;
    let r =
      if t.closed then Error ()
      else
        Ok
          (match t.pool_slot with
          | Some p -> p
          | None ->
            let p = Parallel.Pool.create ~jobs:t.jobs () in
            t.pool_slot <- Some p;
            p)
    in
    Mutex.unlock t.mutex;
    match r with
    | Ok p -> p
    | Error () -> invalid_arg "Experiments.Common.Ctx.pool: context is shut down"

  (* Take the slot under the lock, join the workers outside it: two racing
     shutdowns see the slot exactly once between them, and neither can
     observe a half-shut pool — the old [set_jobs] accessor could shut a
     pool down while a sweep was still fanning out on it. *)
  let shutdown t =
    Mutex.lock t.mutex;
    let p = t.pool_slot in
    t.pool_slot <- None;
    t.closed <- true;
    Mutex.unlock t.mutex;
    Option.iter Parallel.Pool.shutdown p

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

let parallel_map ctx f xs =
  (* chunk 1: each task is a whole scenario generate + solve, far heavier
     than the queue overhead. On a worker (the registry fanning experiments
     out) or with one job, stay inline — and don't spawn the shared pool. *)
  if Parallel.Pool.on_worker () || Ctx.jobs ctx <= 1 then List.map f xs
  else Parallel.Pool.parallel_map_list ~chunk:1 (Ctx.pool ctx) f xs

let fmt_f v = Printf.sprintf "%.2f" v

let fmt_ms v = Printf.sprintf "%.1f" v
