(* The Parallel.Pool determinism contract, tested against the sequential
   oracle:
   1. qcheck properties — [parallel_map f] equals [List.map f] for random
      workloads, pool sizes and chunkings; worker exceptions propagate to
      the caller exactly as a sequential run would raise them;
   2. pool lifecycle — spawn-once workers are reused across many batches
      (including after a failed batch and from nested fan-outs) and
      shutdown is idempotent;
   3. golden solver runs — pooled multi-restart local search and
      multi-chain annealing return bit-identical selections and objectives
      to their sequential runs on the three fixed iBench scenarios. *)

open Util

exception Boom of int

let frac = Alcotest.testable Frac.pp Frac.equal

(* --- qcheck: parallel_map vs the sequential oracle --------------------- *)

let workload_gen =
  QCheck2.Gen.(
    triple (list_size (int_range 0 60) (int_range (-1000) 1000))
      (int_range 1 4) (int_range 1 7))

let print_workload (xs, jobs, chunk) =
  Printf.sprintf "xs=[%s] jobs=%d chunk=%d"
    (String.concat ";" (List.map string_of_int xs))
    jobs chunk

let map_matches_oracle =
  QCheck2.Test.make ~count:40 ~name:"parallel_map f = List.map f"
    ~print:print_workload workload_gen (fun (xs, jobs, chunk) ->
      let f x = (x * x) + (7 * x) - 3 in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.parallel_map_list ~chunk pool f xs = List.map f xs))

let exn_gen =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* first_bad = int_range 0 (n - 1) in
    let* extra_bad = list_size (int_range 0 5) (int_range first_bad (n - 1)) in
    let* jobs = int_range 1 4 in
    let* chunk = int_range 1 7 in
    return (n, first_bad, extra_bad, jobs, chunk))

let exceptions_propagate =
  QCheck2.Test.make ~count:40
    ~name:"worker exception = sequential run's first exception"
    ~print:(fun (n, first_bad, extra_bad, jobs, chunk) ->
      Printf.sprintf "n=%d first_bad=%d extra=[%s] jobs=%d chunk=%d" n
        first_bad
        (String.concat ";" (List.map string_of_int extra_bad))
        jobs chunk)
    exn_gen
    (fun (n, first_bad, extra_bad, jobs, chunk) ->
      let bad x = x = first_bad || List.mem x extra_bad in
      let f x = if bad x then raise (Boom x) else x in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          match
            Parallel.Pool.parallel_map ~chunk pool f (Array.init n Fun.id)
          with
          | _ -> false
          | exception Boom i ->
            (* the lowest failing index wins, whatever chunks other
               failures landed in *)
            i = first_bad))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ map_matches_oracle; exceptions_propagate ]

(* --- pool lifecycle ---------------------------------------------------- *)

let lifecycle_tests =
  [
    Alcotest.test_case "one pool serves many batches" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            Alcotest.(check int) "jobs" 3 (Parallel.Pool.jobs pool);
            for round = 1 to 100 do
              let n = 1 + (round mod 17) in
              let xs = Array.init n (fun i -> (round * 31) + i) in
              let got =
                Parallel.Pool.parallel_map
                  ~chunk:(1 + (round mod 5))
                  pool string_of_int xs
              in
              if got <> Array.map string_of_int xs then
                Alcotest.failf "batch %d diverged from oracle" round
            done));
    Alcotest.test_case "pool survives a failed batch" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:3 (fun pool ->
            let xs = Array.init 20 Fun.id in
            (try
               ignore
                 (Parallel.Pool.parallel_map ~chunk:1 pool
                    (fun x -> if x >= 5 then raise (Boom x) else x)
                    xs)
             with Boom 5 -> ());
            Alcotest.(check (array int))
              "next batch is clean"
              (Array.map (fun x -> x + 1) xs)
              (Parallel.Pool.parallel_map pool (fun x -> x + 1) xs)));
    Alcotest.test_case "nested fan-out runs inline, no deadlock" `Quick
      (fun () ->
        Parallel.Pool.with_pool ~jobs:2 (fun pool ->
            Alcotest.(check bool) "caller is not a worker" false
              (Parallel.Pool.on_worker ());
            let got =
              Parallel.Pool.parallel_map ~chunk:1 pool
                (fun x ->
                  Array.fold_left ( + ) 0
                    (Parallel.Pool.parallel_map pool Fun.id
                       (Array.make x 1)))
                (Array.init 6 Fun.id)
            in
            Alcotest.(check (array int)) "sums" (Array.init 6 Fun.id) got));
    Alcotest.test_case "a one-task batch runs on the caller" `Quick (fun () ->
        Parallel.Pool.with_pool ~jobs:2 (fun pool ->
            Alcotest.(check (array bool))
              "not on a worker" [| false |]
              (Parallel.Pool.parallel_map pool
                 (fun () -> Parallel.Pool.on_worker ())
                 [| () |])));
    Alcotest.test_case "shutdown is idempotent; late batches rejected" `Quick
      (fun () ->
        let pool = Parallel.Pool.create ~jobs:2 () in
        Alcotest.(check (array int))
          "batch before shutdown" [| 0; 2; 4 |]
          (Parallel.Pool.parallel_map pool (fun x -> 2 * x) [| 0; 1; 2 |]);
        Parallel.Pool.shutdown pool;
        Parallel.Pool.shutdown pool;
        Alcotest.check_raises "submission after shutdown"
          (Invalid_argument "Parallel.Pool: batch submitted to a shut-down pool")
          (fun () ->
            ignore (Parallel.Pool.parallel_map pool Fun.id [| 1; 2; 3 |])));
    Alcotest.test_case "inline batches after shutdown are rejected" `Quick
      (fun () ->
        (* a one-job pool and a one-task batch both run on the caller; the
           shut-down check must cover that path too *)
        let rejected pool xs =
          match Parallel.Pool.parallel_map pool Fun.id xs with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        let solo = Parallel.Pool.create ~jobs:1 () in
        Parallel.Pool.shutdown solo;
        Alcotest.(check bool) "one-job pool" true (rejected solo [| 1; 2 |]);
        let duo = Parallel.Pool.create ~jobs:2 () in
        Parallel.Pool.shutdown duo;
        Alcotest.(check bool) "one-task batch" true (rejected duo [| 1 |]));
    Alcotest.test_case "repeated create/shutdown cycles" `Quick (fun () ->
        (* domains are joined on shutdown, so churning pools neither leaks
           nor exhausts the runtime's domain slots *)
        for i = 1 to 50 do
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              Alcotest.(check (array int))
                (Printf.sprintf "cycle %d" i)
                [| i; i + 1 |]
                (Parallel.Pool.parallel_map pool (fun x -> x + i) [| 0; 1 |]))
        done);
  ]

(* --- seed splitting ---------------------------------------------------- *)

let seed_tests =
  [
    Alcotest.test_case "derive keeps the base at index 0" `Quick (fun () ->
        List.iter
          (fun base ->
            Alcotest.(check int)
              (Printf.sprintf "base %d" base)
              base
              (Parallel.Seed.derive base 0))
          [ 0; 1; 42; max_int ]);
    Alcotest.test_case "derived seeds are distinct and non-negative" `Quick
      (fun () ->
        List.iter
          (fun base ->
            let seeds = List.init 1000 (Parallel.Seed.derive base) in
            List.iter
              (fun s -> if s < 0 then Alcotest.failf "negative seed %d" s)
              seeds;
            let distinct = List.sort_uniq compare seeds in
            Alcotest.(check int)
              (Printf.sprintf "no collisions under base %d" base)
              1000 (List.length distinct))
          [ 0; 7; 123456789 ]);
    Alcotest.test_case "negative index rejected" `Quick (fun () ->
        Alcotest.check_raises "derive -1"
          (Invalid_argument "Parallel.Seed.derive: negative task index")
          (fun () -> ignore (Parallel.Seed.derive 3 (-1))));
  ]

(* --- golden: pooled solvers vs sequential on fixed iBench scenarios --- *)

let golden_tests =
  List.map
    (fun g ->
      Alcotest.test_case
        (Printf.sprintf "pooled solvers match sequential on %s"
           g.Fixtures.g_name)
        `Quick
        (fun () ->
          let p = Fixtures.golden_problem g in
          let seq = Core.Local_search.solve ~restarts:8 p in
          let seq_anneal = Core.Anneal.solve_multi ~chains:4 p in
          Parallel.Pool.with_pool ~jobs:4 (fun pool ->
              let par = Core.Local_search.solve ~pool ~restarts:8 p in
              Alcotest.(check (list int))
                "local-search selection"
                (Core.Problem.indices_of_selection seq)
                (Core.Problem.indices_of_selection par);
              Alcotest.check frac "local-search objective"
                (Core.Objective.value p seq)
                (Core.Objective.value p par);
              let par_anneal = Core.Anneal.solve_multi ~pool ~chains:4 p in
              Alcotest.(check (list int))
                "anneal selection"
                (Core.Problem.indices_of_selection seq_anneal)
                (Core.Problem.indices_of_selection par_anneal));
          (* one chain degenerates to the plain annealer, whose selection
             (and objective) is pinned by the golden fixtures *)
          Alcotest.(check (list int))
            "solve_multi ~chains:1 = solve" g.Fixtures.g_anneal
            (Core.Problem.indices_of_selection
               (Core.Anneal.solve_multi ~chains:1 p))))
    Fixtures.golden_scenarios

let () =
  Alcotest.run "parallel"
    [
      ("qcheck-oracle", qcheck_tests);
      ("pool-lifecycle", lifecycle_tests);
      ("seed-splitting", seed_tests);
      ("golden-solvers", golden_tests);
    ]
