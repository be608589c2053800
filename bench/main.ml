(* The benchmark harness.

   Part 1 regenerates every table and figure of the reproduction (E1..E15;
   E13 retired) by running the experiment registry — these are the
   rows/series the paper reports (skippable with --skip-experiments). Part 2 runs one Bechamel
   micro-benchmark per experiment, measuring the computational kernel that
   dominates it, plus the substrate kernels (conjunctive queries, chase,
   grounding, ADMM), followed by the sequential-vs-pool, cache cold/warm and
   telemetry-overhead sections.

   With --json PATH the harness additionally serialises every measurement as
   a Perf.Report (the BENCH_<n>.json trajectory format) so CI can gate fresh
   numbers against the committed baseline via bench_gate. *)

open Bechamel
open Toolkit

(* timestamps for the JSON report: ms on the monotonic clock since startup,
   stamped as each section completes (Report.validate checks monotonicity) *)
let t_start = Util.Timer.now_ns ()

let at_ms () = Int64.to_float (Int64.sub (Util.Timer.now_ns ()) t_start) /. 1e6

(* --- fixtures shared by the micro-benchmarks --------------------------- *)

let scenario ~seed ~pi_corresp ~pi_errors ~pi_unexplained =
  Ibench.Generator.generate
    (Experiments.Common.noise_config ~seed ~pi_corresp ~pi_errors
       ~pi_unexplained ())

let problem_of (s : Ibench.Scenario.t) =
  Core.Problem.make ~source:s.Ibench.Scenario.instance_i
    ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates

let e1_problem =
  lazy
    (let s = scenario ~seed:1 ~pi_corresp:0 ~pi_errors:0 ~pi_unexplained:0 in
     problem_of s)

let noisy_problem =
  lazy
    (let s = scenario ~seed:2 ~pi_corresp:25 ~pi_errors:25 ~pi_unexplained:10 in
     problem_of s)

let small_problem =
  lazy
    (let config =
       Experiments.Common.noise_config
         ~primitives:Ibench.Primitive.[ (CP, 1); (ME, 1); (VP, 1) ]
         ~seed:3 ~pi_corresp:50 ~pi_errors:25 ~pi_unexplained:25 ()
     in
     problem_of (Ibench.Generator.generate config))

let big_problem =
  lazy
    (let config =
       Experiments.Common.noise_config
         ~primitives:(List.map (fun k -> (k, 2)) Ibench.Primitive.all)
         ~seed:4 ~pi_corresp:25 ~pi_errors:10 ~pi_unexplained:10 ()
     in
     problem_of (Ibench.Generator.generate config))

let big_model = lazy (Core.Cmd.build_model (Lazy.force big_problem))

(* Single-flip kernels on the big problem: the naive one re-evaluates the
   whole objective around a flip, the incremental one probes the same flip
   through the shared evaluation state. Both cycle over the candidates so
   the distribution of touched cover lists is identical. *)
let flip_state =
  lazy
    (let p = Lazy.force big_problem in
     let sel = Core.Greedy.solve p in
     (p, sel, Core.Incremental.create p sel))

let naive_flip_counter = ref 0

let incr_flip_counter = ref 0

(* A frozen copy of the pre-rewrite local search, kept as the end-to-end
   naive baseline for the solver wall-time comparison. *)
let naive_improve p start =
  let open Util in
  let sel = Array.copy start in
  let current = ref (Core.Objective.value p sel) in
  let improved = ref true in
  while !improved do
    improved := false;
    let best_flip = ref None in
    for c = 0 to Array.length sel - 1 do
      sel.(c) <- not sel.(c);
      let v = Core.Objective.value p sel in
      sel.(c) <- not sel.(c);
      if Frac.(v < !current) then
        match !best_flip with
        | Some (_, bv) when Frac.(bv <= v) -> ()
        | Some _ | None -> best_flip := Some (c, v)
    done;
    match !best_flip with
    | None -> ()
    | Some (c, v) ->
      sel.(c) <- not sel.(c);
      current := v;
      improved := true
  done;
  sel

(* The E6-scale scenario again, this time with a pre-warmed evaluation
   cache: the warm kernel measures problem construction when every
   candidate's chase and coverage stats come out of the cache. *)
let cache_fixture =
  lazy
    (let config =
       Experiments.Common.noise_config
         ~primitives:(List.map (fun k -> (k, 2)) Ibench.Primitive.all)
         ~seed:4 ~pi_corresp:25 ~pi_errors:10 ~pi_unexplained:10 ()
     in
     let s = Ibench.Generator.generate config in
     let cache = Cache.create () in
     ignore
       (Core.Problem.make ~cache ~source:s.Ibench.Scenario.instance_i
          ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates);
     (s, cache))

let me_scenario =
  lazy
    (Ibench.Generator.generate
       (Experiments.Common.noise_config
          ~primitives:[ (Ibench.Primitive.ME, 2) ]
          ~seed:5 ~pi_corresp:25 ~pi_errors:25 ~pi_unexplained:25 ()))

let setcover_instance =
  {
    Core.Setcover.universe = [ "a"; "b"; "c"; "d"; "e" ];
    sets =
      [ ("S1", [ "a"; "b" ]); ("S2", [ "b"; "c"; "d" ]); ("S3", [ "d"; "e" ]);
        ("S4", [ "a"; "e" ]) ];
    budget = 2;
  }

let full_selection p = Array.make (Core.Problem.num_candidates p) true

(* spawn-once 4-worker pool shared by the parallel solver kernels *)
let pool4 = lazy (Parallel.Pool.create ~jobs:4 ())

(* a 2-atom join over the HR-style source, evaluated through [Cq.answers] *)
let cq_query =
  let v x = Logic.Term.Var x in
  [
    Logic.Atom.make "me1_s1" [ v "A0"; v "A1"; v "A2"; v "A3"; v "F" ];
    Logic.Atom.make "me1_s2" [ v "F"; v "B0"; v "B1"; v "B2"; v "B3" ];
  ]

let cq_fixture =
  lazy
    (let s = Lazy.force me_scenario in
     (s.Ibench.Scenario.instance_i, cq_query))

let egd_fixture =
  lazy
    (let entry = Option.get (Scenarios.Zoo.find "hr") in
     let doc = entry.Scenarios.Zoo.doc in
     let exchanged =
       Chase.universal_solution doc.Serialize.Document.instance_i
         entry.Scenarios.Zoo.ground_truth
     in
     let unit_schema =
       Relational.Schema.of_relations
         [ Relational.Relation.make "unit" [ "uid"; "uname" ] ]
     in
     (exchanged, Chase.Egd.key ~rel:"unit" ~key:[ "uname" ] unit_schema))

(* --- the test suite ----------------------------------------------------- *)

let stage = Staged.stage

let tests =
  Test.make_grouped ~name:"repro"
    [
      (* per-experiment kernels *)
      Test.make ~name:"e1-objective-eval"
        (stage (fun () ->
             let p = Lazy.force e1_problem in
             Core.Objective.value p (full_selection p)));
      Test.make ~name:"e2-scenario-generation"
        (stage (fun () -> Ibench.Generator.generate Ibench.Config.default));
      Test.make ~name:"e3-cmd-solve-noisy"
        (stage (fun () -> Core.Cmd.solve (Lazy.force noisy_problem)));
      Test.make ~name:"e4-greedy-solve-noisy"
        (stage (fun () -> Core.Greedy.solve (Lazy.force noisy_problem)));
      Test.make ~name:"e5-candidate-generation"
        (stage (fun () ->
             let s = Lazy.force me_scenario in
             Candgen.Generate.generate ~source:s.Ibench.Scenario.source
               ~target:s.Ibench.Scenario.target
               ~src_fkeys:s.Ibench.Scenario.src_fkeys
               ~tgt_fkeys:s.Ibench.Scenario.tgt_fkeys
               ~corrs:s.Ibench.Scenario.correspondences));
      Test.make ~name:"e6-admm-big-model"
        (stage (fun () -> Psl.Admm.solve (Lazy.force big_model)));
      Test.make ~name:"e7-cover-analysis-me"
        (stage (fun () ->
             let s = Lazy.force me_scenario in
             Cover.analyze ~source:s.Ibench.Scenario.instance_i
               ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates));
      Test.make ~name:"e8-exact-branch-and-bound"
        (stage (fun () -> Core.Exact.solve (Lazy.force small_problem)));
      Test.make ~name:"e9-setcover-decide"
        (stage (fun () -> Core.Setcover.decide setcover_instance));
      Test.make ~name:"e10-cmd-squared"
        (stage (fun () ->
             Core.Cmd.solve
               ~options:{ Core.Cmd.default_options with Core.Cmd.squared = true }
               (Lazy.force noisy_problem)));
      Test.make ~name:"e14-weight-scoring"
        (stage (fun () ->
             let p = Lazy.force small_problem in
             let gold = Array.make (Core.Problem.num_candidates p) false in
             Core.Tune.score p ~gold
               { Core.Problem.w_unexplained = 2; w_errors = 1; w_size = 1 }));
      (* incremental-evaluation kernels (naive vs delta engine) *)
      Test.make ~name:"flip-naive-big"
        (stage (fun () ->
             let p, sel, _ = Lazy.force flip_state in
             let m = Core.Problem.num_candidates p in
             let c = !naive_flip_counter mod m in
             incr naive_flip_counter;
             sel.(c) <- not sel.(c);
             let v = Core.Objective.value p sel in
             sel.(c) <- not sel.(c);
             v));
      Test.make ~name:"flip-incremental-big"
        (stage (fun () ->
             let p, _, st = Lazy.force flip_state in
             let m = Core.Problem.num_candidates p in
             let c = !incr_flip_counter mod m in
             incr incr_flip_counter;
             Core.Incremental.flip_delta st c));
      Test.make ~name:"solver-local-search-naive-big"
        (stage (fun () ->
             let p = Lazy.force big_problem in
             naive_improve p (full_selection p)));
      Test.make ~name:"solver-local-search-incr-big"
        (stage (fun () ->
             let p = Lazy.force big_problem in
             Core.Local_search.improve p (full_selection p)));
      Test.make ~name:"solver-greedy-big"
        (stage (fun () -> Core.Greedy.solve (Lazy.force big_problem)));
      Test.make ~name:"solver-anneal-big"
        (stage (fun () -> Core.Anneal.solve (Lazy.force big_problem)));
      (* parallel-execution kernels: the same multi-restart searches,
         sequential vs fanned out over the reusable 4-worker pool *)
      Test.make ~name:"solver-local-restarts8-seq-big"
        (stage (fun () ->
             Core.Local_search.solve ~restarts:8 (Lazy.force big_problem)));
      Test.make ~name:"solver-local-restarts8-par4-big"
        (stage (fun () ->
             Core.Local_search.solve ~pool:(Lazy.force pool4) ~restarts:8
               (Lazy.force big_problem)));
      Test.make ~name:"solver-anneal-chains4-seq-big"
        (stage (fun () ->
             Core.Anneal.solve_multi ~chains:4 (Lazy.force big_problem)));
      Test.make ~name:"solver-anneal-chains4-par4-big"
        (stage (fun () ->
             Core.Anneal.solve_multi ~pool:(Lazy.force pool4) ~chains:4
               (Lazy.force big_problem)));
      (* evaluation-cache kernels: the same E6-scale problem construction,
         chased from scratch vs served from a pre-warmed cache *)
      Test.make ~name:"cache-problem-build-cold"
        (stage (fun () ->
             let s, _ = Lazy.force cache_fixture in
             Core.Problem.make ~source:s.Ibench.Scenario.instance_i
               ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates));
      Test.make ~name:"cache-problem-build-warm"
        (stage (fun () ->
             let s, cache = Lazy.force cache_fixture in
             Core.Problem.make ~cache ~source:s.Ibench.Scenario.instance_i
               ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates));
      (* substrate kernels *)
      Test.make ~name:"substrate-chase"
        (stage (fun () ->
             let s = Lazy.force me_scenario in
             Chase.run s.Ibench.Scenario.instance_i s.Ibench.Scenario.ground_truth));
      Test.make ~name:"substrate-cq-plain"
        (stage (fun () ->
             let inst, q = Lazy.force cq_fixture in
             Logic.Cq.answers inst q));
      Test.make ~name:"substrate-psl-grounding"
        (stage (fun () ->
             Core.Cmd.build_model (Lazy.force noisy_problem)));
      Test.make ~name:"substrate-local-search"
        (stage (fun () ->
             let p = Lazy.force small_problem in
             Core.Local_search.improve p (full_selection p)));
      Test.make ~name:"substrate-egd-chase"
        (stage (fun () ->
             let inst, egds = Lazy.force egd_fixture in
             Chase.Egd.chase inst egds));
      Test.make ~name:"substrate-implication"
        (stage (fun () ->
             let s = Lazy.force me_scenario in
             Chase.Implication.minimize s.Ibench.Scenario.candidates));
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1500 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  Analyze.all ols Instance.monotonic_clock raw

let pp_time ppf ns =
  if ns >= 1e9 then Format.fprintf ppf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf ppf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf ppf "%8.2f us" (ns /. 1e3)
  else Format.fprintf ppf "%8.2f ns" ns

(* Direct wall-clock comparison of the sequential and pooled execution
   paths on identical workloads — the speedup is measured, not asserted.
   Results are bit-identical by the Parallel.Pool determinism contract
   (checked here too); the achievable ratio is bounded by the machine's
   core count, which is printed so the numbers are interpretable on
   single-core runners. *)
let parallel_speedup () =
  Format.printf "@.=====================================================@.";
  Format.printf " Parallel execution: sequential vs 4-domain pool@.";
  Format.printf "=====================================================@.";
  Format.printf "recommended_domain_count = %d (a >=2x speedup needs >=4 cores)@."
    (Domain.recommended_domain_count ());
  let entries = ref [] in
  let measure name seq par check_equal =
    ignore (seq ());
    ignore (par ());
    let s, seq_ms = Util.Timer.time_ms seq in
    let p, par_ms = Util.Timer.time_ms par in
    let identical = check_equal s p in
    Format.printf "%-35s seq %8.1f ms   par(4) %8.1f ms   speedup %5.2fx   identical %b@."
      name seq_ms par_ms (seq_ms /. par_ms) identical;
    entries :=
      {
        Perf.Report.p_name = name;
        seq_ms;
        par_ms;
        speedup = seq_ms /. par_ms;
        identical;
        p_at_ms = at_ms ();
      }
      :: !entries
  in
  Parallel.Pool.with_pool ~jobs:4 (fun pool ->
      let p = Lazy.force big_problem in
      measure "local-search-16-restarts"
        (fun () -> Core.Local_search.solve ~restarts:16 p)
        (fun () -> Core.Local_search.solve ~pool ~restarts:16 p)
        ( = );
      measure "anneal-8-chains"
        (fun () -> Core.Anneal.solve_multi ~chains:8 p)
        (fun () -> Core.Anneal.solve_multi ~pool ~chains:8 p)
        ( = ));
  let sweep jobs =
    Experiments.Common.Ctx.with_ctx ~jobs (fun ctx ->
        Experiments.Noise_sweep.run ctx ~levels:[ 0; 25 ] ~seeds:[ 1; 2; 3; 4 ]
          ~id:"bench" Experiments.Noise_sweep.Errors)
  in
  measure "noise-sweep-2x4-scenarios"
    (fun () -> sweep 1)
    (fun () -> sweep 4)
    (fun a b -> Experiments.Table.to_string a = Experiments.Table.to_string b);
  List.rev !entries

(* Warm-vs-cold evaluation cache on the E6-scale scenario: the speedup is
   measured, not asserted, and the bit-identity contract is checked via
   the problem digest, with the warm build's memoized key against it. The
   warm build still pays for the source index and per-candidate
   re-indexing, so the ratio is bounded by the share the chase takes of
   construction — which is what the cache exists to skip. *)
let cache_speedup () =
  Format.printf "@.=====================================================@.";
  Format.printf " Evaluation cache: cold vs warm on the E6 scenario@.";
  Format.printf "=====================================================@.";
  let s, _ = Lazy.force cache_fixture in
  let build cache =
    Core.Problem.make ?cache ~source:s.Ibench.Scenario.instance_i
      ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
  in
  let best_ms f =
    ignore (f ());
    let run () = Util.Timer.time_ms f in
    let r1 = run () and r2 = run () and r3 = run () in
    List.fold_left
      (fun (best_v, best_ms) (v, ms) ->
        if ms < best_ms then (v, ms) else (best_v, best_ms))
      r1 [ r2; r3 ]
  in
  let uncached, uncached_ms = best_ms (fun () -> build None) in
  let cache = Cache.create () in
  let cold, cold_ms = Util.Timer.time_ms (fun () -> build (Some cache)) in
  let warm, warm_ms = best_ms (fun () -> build (Some cache)) in
  let d = Core.Problem.digest uncached in
  let identical =
    d = Core.Problem.digest cold
    && d = Core.Problem.digest warm
    && d = Core.Problem.key warm
  in
  Format.printf
    "problem-build (%d candidates)       uncached %8.1f ms   cold %8.1f ms   \
     warm %8.1f ms@."
    (Core.Problem.num_candidates uncached)
    uncached_ms cold_ms warm_ms;
  Format.printf "warm-cache speedup %5.2fx   bit-identical %b@."
    (uncached_ms /. warm_ms) identical;
  let stats = Cache.stats cache in
  Format.printf "cache.hits %d   cache.misses %d   cache.evictions %d@."
    stats.Cache.hits stats.Cache.misses stats.Cache.evictions;
  let lookups = stats.Cache.hits + stats.Cache.misses in
  {
    Perf.Report.uncached_ms;
    cold_ms;
    warm_ms;
    warm_speedup = uncached_ms /. warm_ms;
    hits = stats.Cache.hits;
    misses = stats.Cache.misses;
    evictions = stats.Cache.evictions;
    hit_rate =
      (if lookups = 0 then 0.
       else float_of_int stats.Cache.hits /. float_of_int lookups);
    bit_identical = identical;
    c_at_ms = at_ms ();
  }

(* Re-served sweeps end to end: re-serving a pi_errors grid from a cached
   solver context — the serving daemon's and experiment suite's steady
   state — against solving it uncached. The re-served pass rebuilds every
   problem from its scenario (stats and problem-key tier hits), then
   answers each point from the cache's selection tier. Scenario generation is hoisted out of
   the timed region (identical work in every pass, it would only dilute
   the ratio). Re-serving is a pure accelerator — per-point selections
   must be bit-identical across all passes — and the ratio keeps its
   historical name, sweep.warm_speedup, held to a hard >= 5x floor by
   Perf.Report.gate, not just to the baseline band. After one cold pass
   fills the cache, three uncached passes alternate with three re-served
   ones, and the ratio is that of their medians: the two sides are timed
   under the same machine load rather than one pass each at different
   moments. *)
let sweep_speedup () =
  Format.printf "@.=====================================================@.";
  Format.printf " Re-served sweeps: cold vs re-served pi_errors grid@.";
  Format.printf "=====================================================@.";
  let levels = [ 0; 5; 10; 15; 20; 25; 30; 40; 50 ] in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let points =
    List.concat_map
      (fun seed ->
        List.map
          (fun level ->
            Ibench.Generator.generate
              (Experiments.Common.noise_config ~rows:48 ~seed ~pi_corresp:0
                 ~pi_errors:level ~pi_unexplained:0 ()))
          levels)
      seeds
  in
  let pass ctx =
    List.map
      (fun s ->
        let p = Experiments.Common.problem_of_scenario ctx s in
        (Experiments.Common.run_solver ctx Experiments.Common.Cmd_solver s p)
          .Experiments.Common.selection)
      points
  in
  let uncached () =
    Util.Timer.time_ms (fun () ->
        Experiments.Common.Ctx.with_ctx ~jobs:1 pass)
  in
  Experiments.Common.Ctx.with_ctx ~cache:(Cache.create ()) ~jobs:1 (fun ctx ->
      let cold, cold_ms = Util.Timer.time_ms (fun () -> pass ctx) in
      (* three uncached and three re-served passes, alternating, so that a
         change in machine load slows both sides alike *)
      let rounds =
        List.init 3 (fun _ ->
            let u = uncached () in
            let r = Util.Timer.time_ms (fun () -> pass ctx) in
            (u, r))
      in
      let uncached_ms =
        Util.Stats.median (List.map (fun ((_, ms), _) -> ms) rounds)
      in
      let reserved_ms =
        Util.Stats.median (List.map (fun (_, (_, ms)) -> ms) rounds)
      in
      let identical =
        List.for_all
          (fun ((u, _), (r, _)) -> u = cold && r = cold)
          rounds
      in
      let speedup = uncached_ms /. reserved_ms in
      Format.printf
        "pi_errors grid (%d levels x %d seeds)   uncached %8.1f ms   cold \
         %8.1f ms   re-served %8.1f ms   (medians of 3 alternating)@."
        (List.length levels) (List.length seeds) uncached_ms cold_ms
        reserved_ms;
      Format.printf "sweep.warm_speedup %5.2fx   bit-identical %b@." speedup
        identical;
      if not identical then
        failwith "re-served sweep diverged from the cold sweep";
      { Perf.Report.r_name = "sweep.warm_speedup"; value = speedup })

(* The telemetry layer's cost contract, measured: a disabled sink must be
   ≈ zero cost on the hot flip kernel (the budget is ~2% — one atomic load
   and branch per probe), and an enabled no-op sink should stay cheap
   enough to leave on under fuzzing. Timings use the best of three runs to
   shave scheduler noise; the verdict line is the guard CI greps for. *)
let telemetry_overhead () =
  Format.printf "@.=====================================================@.";
  Format.printf " Telemetry: observation cost on the flip kernel@.";
  Format.printf "=====================================================@.";
  let p, _, st = Lazy.force flip_state in
  let m = Core.Problem.num_candidates p in
  let iters = 2_000_000 in
  let kernel () =
    for i = 0 to iters - 1 do
      ignore (Core.Incremental.flip_delta st (i mod m))
    done
  in
  let best_ms f =
    ignore (f ());
    let run () = snd (Util.Timer.time_ms f) in
    Float.min (run ()) (Float.min (run ()) (run ()))
  in
  Telemetry.set_enabled false;
  let off = best_ms kernel in
  Telemetry.set_enabled true;
  let on = best_ms kernel in
  Telemetry.set_enabled false;
  (* the disabled fast path in isolation: one counter check per iteration *)
  let c = Telemetry.Counter.make "bench.disabled_probe" in
  let checks = 50_000_000 in
  let check_loop () =
    for _ = 1 to checks do
      Telemetry.Counter.incr c
    done
  in
  let disabled_check_ms = best_ms check_loop in
  let per_probe_ns = disabled_check_ms *. 1e6 /. float_of_int checks in
  let per_flip_ns = off *. 1e6 /. float_of_int iters in
  let disabled_pct = 100. *. per_probe_ns /. per_flip_ns in
  Format.printf
    "flip_delta x%d          disabled %8.1f ms   enabled(no-op) %8.1f ms   \
     (+%.2f%%)@."
    iters off on
    (100. *. (on -. off) /. off);
  Format.printf
    "disabled counter check      %6.2f ns/op  =  %.3f%% of one %.0f ns \
     flip probe@."
    per_probe_ns disabled_pct per_flip_ns;
  Format.printf "telemetry disabled-sink budget (< 2%% of flip kernel): %s@."
    (if disabled_pct < 2.0 then "OK" else "EXCEEDED");
  {
    Perf.Report.disabled_ms = off;
    enabled_ms = on;
    overhead_pct = 100. *. (on -. off) /. off;
    within_budget = disabled_pct < 2.0;
    t_at_ms = at_ms ();
  }

(* How much the core stage shrinks K_M on the E6-scale scenario (all iBench
   primitive families, joins included): total trigger tuples produced
   across candidates, uncored over cored. The gate holds this ratio to
   >= 1.0 unconditionally — coring must never grow K_M — and to the
   baseline floor like every other ratio. *)
let core_shrink () =
  Format.printf "@.=====================================================@.";
  Format.printf " Core universal solutions: K_M shrink on E6@.";
  Format.printf "=====================================================@.";
  let s, _ = Lazy.force cache_fixture in
  let produced core =
    Array.fold_left
      (fun n x -> n + x.Cover.produced)
      0
      (Cover.analyze ~core ~source:s.Ibench.Scenario.instance_i
         ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates)
  in
  let plain = produced false in
  let cored = produced true in
  let shrink = float_of_int plain /. float_of_int cored in
  Format.printf "K_M produced: uncored %d   cored %d   core.km_shrink %.3fx@."
    plain cored shrink;
  { Perf.Report.r_name = "core.km_shrink"; value = shrink }

(* The derived bigger-is-better numbers the CI gate tracks: kernel-pair
   speedups from the OLS estimates plus the cache and pool speedups. A pair
   whose estimates are missing is dropped (the gate reports it as a missing
   ratio rather than comparing garbage). *)
let derive_ratios rows pool cache =
  let ns key =
    match
      List.find_opt
        (fun (n, _) -> n = key || String.ends_with ~suffix:("/" ^ key) n)
        rows
    with
    | Some (_, est) when Float.is_finite est && est > 0. -> Some est
    | Some _ | None -> None
  in
  let ratio name a b =
    match (ns a, ns b) with
    | Some x, Some y -> [ { Perf.Report.r_name = name; value = x /. y } ]
    | _ -> []
  in
  ratio "flip-naive-over-incremental" "flip-naive-big" "flip-incremental-big"
  @ ratio "local-search-naive-over-incremental" "solver-local-search-naive-big"
      "solver-local-search-incr-big"
  @ ratio "cache-build-cold-over-warm" "cache-problem-build-cold"
      "cache-problem-build-warm"
  @ [
      {
        Perf.Report.r_name = "cache-warm-speedup";
        value = cache.Perf.Report.warm_speedup;
      };
    ]
  @ List.map
      (fun (p : Perf.Report.pool_compare) ->
        { Perf.Report.r_name = "pool-speedup-" ^ p.p_name; value = p.speedup })
      pool

let usage () =
  prerr_endline "usage: main.exe [--skip-experiments] [--json PATH]";
  exit 2

let () =
  let json_path = ref None in
  let skip_experiments = ref false in
  let rec parse_args = function
    | [] -> ()
    | "--skip-experiments" :: rest ->
      skip_experiments := true;
      parse_args rest
    | [ "--json" ] -> usage ()
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "unknown argument '%s'\n" arg;
      usage ()
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if not !skip_experiments then begin
    Format.printf "=====================================================@.";
    Format.printf " Reproduction: every table and figure (E1..E15; E13 retired)@.";
    Format.printf "=====================================================@.@.";
    Experiments.Common.Ctx.with_ctx ~jobs:1 (fun ctx ->
        Experiments.Registry.run_all ctx Format.std_formatter)
  end;
  Format.printf "=====================================================@.";
  Format.printf " Micro-benchmarks (Bechamel, monotonic clock, OLS)@.";
  Format.printf "=====================================================@.";
  let results = benchmark () in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, estimate) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, est) -> Format.printf "%-35s %a / run@." name pp_time est)
    rows;
  let kernels_at = at_ms () in
  let pool = parallel_speedup () in
  let cache = cache_speedup () in
  let sweep = sweep_speedup () in
  let shrink = core_shrink () in
  let telemetry = telemetry_overhead () in
  match !json_path with
  | None -> ()
  | Some path ->
    let kernels =
      List.filter_map
        (fun (name, est) ->
          if Float.is_finite est && est >= 0. then
            Some
              { Perf.Report.k_name = name; ns_per_run = est; k_at_ms = kernels_at }
          else None)
        rows
    in
    let report =
      {
        Perf.Report.schema_version = 1;
        bench = 9;
        jobs = 4;
        kernels;
        ratios = derive_ratios rows pool cache @ [ shrink; sweep ];
        pool;
        cache = Some cache;
        telemetry = Some telemetry;
        server = None;
      }
    in
    Perf.Report.save path report;
    Format.printf "@.wrote %s@." path
