(* The portfolio race and the experiments' solver context (Ctx): the
   determinism contract `--solver portfolio` relies on, and the cache key
   the sweep machinery shares with every other Core.Solver caller. *)

open Core

let appendix_problem () =
  Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

(* --- portfolio ----------------------------------------------------------- *)

let roster_names = [ "cmd"; "exact"; "greedy"; "local"; "anneal" ]

let objective_of name ~seed p =
  let impl = Option.get (Solver.find name) in
  match Solver.solve impl ~seed p with
  | o -> Some (Objective.value p o.Solver.selection)
  | exception Solver_error.Error _ -> None

let portfolio_tests =
  let open QCheck2 in
  [
    Test.make ~name:"portfolio equals the best of its roster" ~count:25
      Fixtures.selection_problem_gen (fun p ->
        let seed = 5 in
        match List.filter_map (fun n -> objective_of n ~seed p) roster_names with
        | [] -> false (* greedy never refuses *)
        | o :: rest -> (
          let best = List.fold_left Util.Frac.min o rest in
          match objective_of "portfolio" ~seed p with
          | None -> false
          | Some v -> Util.Frac.equal v best));
    Test.make ~name:"portfolio is deterministic and pool-invariant" ~count:15
      Fixtures.selection_problem_gen (fun p ->
        let impl = Option.get (Solver.find "portfolio") in
        let seq = (Solver.solve impl ~seed:9 p).Solver.selection in
        let again = (Solver.solve impl ~seed:9 p).Solver.selection in
        let pooled =
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              (Solver.solve impl ~pool ~seed:9 p).Solver.selection)
        in
        seq = again && seq = pooled);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let test_portfolio_all_refuse () =
  (* a roster whose every entry raises must surface a typed error *)
  let refuse name =
    {
      Portfolio.r_name = name;
      r_solve =
        (fun ?pool:_ ?seed:_ _ -> Solver_error.raise_ ~solver:name "refused");
      r_exact = false;
    }
  in
  let p = appendix_problem () in
  Alcotest.(check bool)
    "raises Solver_error for the portfolio itself" true
    (match Portfolio.race ~roster:[ refuse "a"; refuse "b" ] p with
    | exception Solver_error.Error { solver = "portfolio"; _ } -> true
    | _ -> false)

(* --- the solver context -------------------------------------------------- *)

let test_ctx_shutdown_idempotent () =
  let ctx = Experiments.Common.Ctx.create ~jobs:2 () in
  Experiments.Common.Ctx.shutdown ctx;
  (* the old set_jobs accessor double-shut the shared pool here *)
  Experiments.Common.Ctx.shutdown ctx;
  Alcotest.(check bool)
    "batch after shutdown is refused" true
    (match Experiments.Common.parallel_map ctx Fun.id [ 1; 2 ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_ctx_concurrent_shutdown () =
  let ctx = Experiments.Common.Ctx.create ~jobs:2 () in
  let racers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Experiments.Common.Ctx.shutdown ctx))
  in
  List.iter Domain.join racers;
  Alcotest.(check bool)
    "all four shutdowns returned" true true

let sweep_scenario ~seed level =
  Ibench.Generator.generate
    (Experiments.Common.noise_config ~seed ~pi_corresp:0 ~pi_errors:level
       ~pi_unexplained:0 ())

let run_cmd ctx s p =
  (Experiments.Common.run_solver ctx Experiments.Common.Cmd_solver s p)
    .Experiments.Common.selection

(* The [hits]/[misses] [f ()] adds to [cache]'s totals, and its result. *)
let stats_delta cache f =
  let before = Cache.stats cache in
  let r = f () in
  let after = Cache.stats cache in
  ( ( after.Cache.hits - before.Cache.hits,
      after.Cache.misses - before.Cache.misses ),
    r )

let test_ctx_chain_equals_direct () =
  (* the sweep path end to end: a chain of levels through run_solver, with
     and without a cache, selects exactly what direct CMD solves do *)
  let levels = [ 0; 25; 50 ] in
  let through ?cache () =
    Experiments.Common.Ctx.with_ctx ?cache ~jobs:1 (fun ctx ->
        List.map
          (fun level ->
            let s = sweep_scenario ~seed:3 level in
            let p = Experiments.Common.problem_of_scenario ctx s in
            (run_cmd ctx s p, (Cmd.solve p).Cmd.selection))
          levels)
  in
  List.iter2
    (fun level ((plain, direct), (cached, _)) ->
      Alcotest.(check (array bool))
        (Printf.sprintf "level %d uncached" level) direct plain;
      Alcotest.(check (array bool))
        (Printf.sprintf "level %d cached" level) direct cached)
    levels
    (List.combine (through ()) (through ~cache:(Cache.create ()) ()))

let test_ctx_reserved_point_identity () =
  (* re-serving one sweep point under a cached context: the second pass is
     a selection-tier hit, and both passes match an uncached solve *)
  let s = sweep_scenario ~seed:7 25 in
  let uncached =
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        run_cmd ctx s (Experiments.Common.problem_of_scenario ctx s))
  in
  let cache = Cache.create () in
  Experiments.Common.Ctx.with_ctx ~cache ~jobs:1 (fun ctx ->
      let pass () =
        let p = Experiments.Common.problem_of_scenario ctx s in
        stats_delta cache (fun () -> run_cmd ctx s p)
      in
      let first_stats, first = pass () in
      let again_stats, again = pass () in
      Alcotest.(check (pair int int)) "pass 1 solves" (0, 1) first_stats;
      Alcotest.(check (pair int int))
        "re-served pass is a selection hit" (1, 0) again_stats;
      Alcotest.(check (array bool)) "pass 1 equals uncached" uncached first;
      Alcotest.(check (array bool))
        "re-served pass equals uncached" uncached again)

let test_ctx_shares_solver_key () =
  (* run_solver keys CMD selections exactly as Core.Solver.solve does, so
     an entry stored by either is a hit for the other *)
  let s = sweep_scenario ~seed:5 10 in
  let p =
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        Experiments.Common.problem_of_scenario ctx s)
  in
  let cmd = Option.get (Solver.find "cmd") in
  let via_registry cache () = (Solver.solve cmd ~cache p).Solver.selection in
  let via_ctx cache () =
    Experiments.Common.Ctx.with_ctx ~cache ~jobs:1 (fun ctx -> run_cmd ctx s p)
  in
  List.iter
    (fun (order, store, lookup) ->
      let cache = Cache.create () in
      let stored_stats, stored = stats_delta cache (store cache) in
      let found_stats, found = stats_delta cache (lookup cache) in
      Alcotest.(check (pair int int)) (order ^ ": store misses") (0, 1)
        stored_stats;
      Alcotest.(check (pair int int)) (order ^ ": lookup hits") (1, 0)
        found_stats;
      Alcotest.(check (array bool)) (order ^ ": same selection") stored found)
    [
      ("run_solver then registry", via_ctx, via_registry);
      ("registry then run_solver", via_registry, via_ctx);
    ]

let () =
  Alcotest.run "cmd"
    [
      ( "portfolio",
        portfolio_tests
        @ [
            Alcotest.test_case "an all-refusing roster raises" `Quick
              test_portfolio_all_refuse;
          ] );
      ( "ctx",
        [
          Alcotest.test_case "shutdown is idempotent" `Quick
            test_ctx_shutdown_idempotent;
          Alcotest.test_case "concurrent shutdowns race safely" `Quick
            test_ctx_concurrent_shutdown;
          Alcotest.test_case "sweep chain through run_solver equals direct"
            `Quick test_ctx_chain_equals_direct;
          Alcotest.test_case "re-served point equals cold" `Quick
            test_ctx_reserved_point_identity;
        ] );
      ( "cache-keys",
        [
          Alcotest.test_case "run_solver and Core.Solver share CMD entries"
            `Quick test_ctx_shares_solver_key;
        ] );
    ]
