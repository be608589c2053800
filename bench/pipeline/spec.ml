(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json must list the same names, units and directions; the smoke
   test holds it to this table. *)

type metric = { name : string; unit : string; higher_is_better : bool }

let m ?(higher = false) name unit = { name; unit; higher_is_better = higher }

(* Measured with tracing off. [fail_frac] is reported by the full run but
   is not in BENCHMARK.json: it is 0 on every correct run, and a failure
   already shows in the [failed] count. *)
let end_to_end =
  [
    m "select_p50_ms" "ms";
    m "select_p90_ms" "ms";
    m ~higher:true "selects_per_s" "1/s";
    m "setup_s" "s";
    m "peak_rss_mb" "MiB";
  ]

(* Measured with tracing on. [.ms] is mean time per selection, [.share] the
   fraction of traced end-to-end time, and counts are per selection. *)
let layers =
  [
    m "candgen.ms" "ms";
    m "candgen.share" "fraction";
    m "candgen.candidates" "count";
    m "candgen.alloc_kb" "KiB";
    m "chase.ms" "ms";
    m "chase.share" "fraction";
    m "chase.triggers" "count";
    m "chase.tuples" "count";
    m "chase.alloc_kb" "KiB";
    m "cover.ms" "ms";
    m "cover.share" "fraction";
    m "cover.degrees" "count";
    m "cover.errors" "count";
    m "cover.alloc_kb" "KiB";
    m "problem.ms" "ms";
    m "problem.share" "fraction";
    m "objective.ms" "ms";
    m "solve.ms" "ms";
    m "solve.share" "fraction";
    m "cmd.ground.ms" "ms";
    m "cmd.admm.ms" "ms";
    m "cmd.round.ms" "ms";
    m "admm.iterations" "count";
    m "cache.build_ms" "ms";
    m "cache.solve_ms" "ms";
    m ~higher:true "cache.hits" "count";
    m "cache.misses" "count";
    m "cache.evictions" "count";
    m ~higher:true "cache.hit_ratio" "fraction";
    m "chase.runs" "count";
    m "solve.runs" "count";
    m "server.admit_ms" "ms";
    m "server.queue_ms" "ms";
    m "server.build_ms" "ms";
    m "server.solve_ms" "ms";
    m "server.reply_ms" "ms";
    m "server.solves" "count";
    m ~higher:true "server.coalesced" "count";
    m "server.errors" "count";
    m "trace.unattributed_pct" "%";
    m "trace.overhead_pct" "%";
  ]

let layer_names = List.map (fun x -> x.name) layers

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ layers)
