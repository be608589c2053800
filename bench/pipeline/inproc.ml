(* The four in-process workloads: one caller in a closed loop, one
   selection at a time, on the benchmark's own thread. *)

open Measure

(* CMD sub-stage times, from the spans Core.Cmd already opens. The tap
   fires only while telemetry is enabled, i.e. inside traced selections. *)
let span_ns : (string, int64 ref) Hashtbl.t = Hashtbl.create 8

let tap ~domain:_ ~name ~dur_ns =
  match Hashtbl.find_opt span_ns name with
  | Some r -> r := Int64.add !r dur_ns
  | None -> Hashtbl.replace span_ns name (ref dur_ns)

let span_ms name =
  match Hashtbl.find_opt span_ns name with
  | Some r -> Int64.to_float !r /. 1e6
  | None -> 0.

let lookup name pairs = Option.value ~default:0 (List.assoc_opt name pairs)

(* Per-layer metrics of a traced run. [untraced_ms] is the mean latency of
   the untraced selections interleaved with the traced ones. *)
let layers (w : Workload.t) (st : Select.stages) ~untraced_ms =
  let open Select in
  let n = float_of_int (max 1 st.selections) in
  let e2e = Int64.to_float st.e2e_ns in
  let ms s = Int64.to_float s.ns /. 1e6 /. n in
  let share s = if e2e > 0. then Int64.to_float s.ns /. e2e else 0. in
  let kb s = s.alloc_bytes /. 1024. /. n in
  let counters = Telemetry.counters () in
  let per name = float_of_int (lookup name counters) /. n in
  let top =
    match w.Workload.kind with
    | Workload.Sweep -> [ st.candgen; st.build; st.cached_solve; st.objective ]
    | Workload.Cold _ | Workload.Serve ->
      [ st.candgen; st.chase; st.cover; st.problem; st.solve; st.objective ]
  in
  let attributed = List.fold_left (fun a s -> a +. Int64.to_float s.ns) 0. top in
  let hits = lookup "cache.hits" counters
  and misses = lookup "cache.misses" counters in
  let traced_ms = e2e /. 1e6 /. n in
  let measured =
    [
      ("candgen.ms", ms st.candgen);
      ("candgen.share", share st.candgen);
      ("candgen.candidates", float_of_int st.candidates /. n);
      ("candgen.alloc_kb", kb st.candgen);
      ("chase.ms", ms st.chase);
      ("chase.share", share st.chase);
      ("chase.triggers", per "chase.triggers");
      ("chase.tuples", per "chase.tuples_produced");
      ("chase.alloc_kb", kb st.chase);
      ("cover.ms", ms st.cover);
      ("cover.share", share st.cover);
      ("cover.degrees", float_of_int st.degrees /. n);
      ("cover.errors", float_of_int st.errors /. n);
      ("cover.alloc_kb", kb st.cover);
      ("problem.ms", ms st.problem);
      ("problem.share", share st.problem);
      ("objective.ms", ms st.objective);
      ("solve.ms", ms st.solve);
      ("solve.share", share st.solve);
      ("cmd.ground.ms", span_ms "cmd.ground" /. n);
      ("cmd.admm.ms", span_ms "cmd.solve" /. n);
      ("cmd.round.ms", span_ms "cmd.round" /. n);
      ("admm.iterations", per "admm.iterations");
      ("cache.build_ms", ms st.build);
      ("cache.solve_ms", ms st.cached_solve);
      ("cache.hits", per "cache.hits");
      ("cache.misses", per "cache.misses");
      ("cache.evictions", per "cache.evictions");
      ( "cache.hit_ratio",
        if hits + misses = 0 then 0.
        else float_of_int hits /. float_of_int (hits + misses) );
      ("chase.runs", per "chase.runs");
      ( "solve.runs",
        float_of_int (lookup "cmd.ground" (Telemetry.span_counts ())) /. n );
      ( "trace.unattributed_pct",
        if e2e > 0. then 100. *. (e2e -. attributed) /. e2e else 0. );
      ( "trace.overhead_pct",
        if untraced_ms > 0. then
          100. *. (traced_ms -. untraced_ms) /. untraced_ms
        else 0. );
    ]
  in
  (* the server's metrics read 0 in process *)
  List.map
    (fun name -> (name, Option.value ~default:0. (List.assoc_opt name measured)))
    Spec.layer_names

(* The warm-up input is the same for every run seed, so set-up time
   measures the same work on every run; its index lies past the timed
   set's. *)
let warmup_input (w : Workload.t) =
  match join (spawn (fun () -> Workload.input w ~seed:0 w.Workload.inputs)) with
  | Some i -> i
  | None -> failwith "input generation failed"

(* The peak RSS is read once this many requests are done, as the daemon's is
   after a fixed number of requests, so that a faster program does not read
   as a fatter one: the sweep's cache grows through its epoch. *)
let rss_requests = 256

let needed_inputs (w : Workload.t) budget =
  match budget with
  | Seconds _ -> w.Workload.inputs
  | Units u ->
    let hi = ref (digest_inputs - 1) in
    for unit = 0 to u - 1 do
      for pos = 0 to Workload.unit_size w - 1 do
        hi := max !hi (Workload.request w ~unit ~pos)
      done
    done;
    min w.Workload.inputs (!hi + 1)

let run (w : Workload.t) ~seed ~budget ~trace =
  Telemetry.set_enabled false;
  Telemetry.set_span_tap (Some tap);
  let c = checks () in
  let cached = w.Workload.kind = Workload.Sweep in
  let fresh_cache () = if cached then Some (Cache.create ()) else None in
  let attempted = ref 0 in
  let guarded f =
    incr attempted;
    match f () with
    | r -> Some r
    | exception e ->
      fail c "%s: selection raised %s" w.Workload.name (Printexc.to_string e);
      None
  in
  (* Set-up is the first selection of a fresh process: each probe forks
     this process, which has not run a selection yet, and times one
     selection of the warm-up input there, so one-time work that selections
     trigger lands in set-up and not in the timed phase. The probes fork
     before the timed inputs are loaded, so the heap a probe's collector
     walks is the same on every run seed. *)
  let speed = Speed.start () in
  let warmup = warmup_input w in
  let probe () =
    let t0 = now () in
    ignore (Select.run ?cache:(fresh_cache ()) warmup);
    s_since t0
  in
  let probes =
    List.filter_map
      (fun _ ->
        incr attempted;
        Speed.measure speed;
        match join (spawn probe) with
        | Some s -> Some (now (), s)
        | None ->
          fail c "%s: set-up probe failed" w.Workload.name;
          None)
      (List.init setup_probes Fun.id)
  in
  let t_gen = now () in
  let packed =
    generate
      (fun k -> Workload.pack (Workload.input w ~seed k))
      (Array.init (needed_inputs w budget) Fun.id)
  in
  let gen_s = s_since t_gen in
  let mean_i, mean_j, mean_candidates = Workload.describe packed in
  log "%s: generated %d inputs in %.2fs (mean |I| %.0f, |J| %.0f, %.1f candidates)"
    w.Workload.name (Array.length packed) gen_s mean_i mean_j mean_candidates;
  let input k = Workload.unpack packed.(k) in
  ignore (guarded (fun () -> Select.run ?cache:(fresh_cache ()) warmup));
  (* the timed phase *)
  let seen = Array.make (Array.length packed) None in
  let check k a =
    match seen.(k) with
    | None -> seen.(k) <- Some a
    | Some prev when Select.answer_equal prev a -> ()
    | Some _ ->
      fail c "%s: input %d answered differently on a repeat" w.Workload.name k
  in
  let samples = ref [] in
  let st = Select.stages () in
  let untraced ?cache k =
    let inp = input k in
    let t0 = now () in
    match guarded (fun () -> Select.run ?cache inp) with
    | Some r ->
      let t1 = now () in
      samples := (t1, ms_between t0 t1) :: !samples;
      check k (Select.to_answer r)
    | None -> ()
  in
  let traced ?cache k =
    let inp = input k in
    match guarded (fun () -> Select.traced st ?cache inp) with
    | Some r -> check k (Select.to_answer r)
    | None -> ()
  in
  (* A traced run selects every request both ways, alternating which goes
     first. The sweep's two ways go through two caches that see the same
     requests in the same order, so each request meets the same cache
     state both ways. *)
  let fresh_caches () = (fresh_cache (), if trace then fresh_cache () else None) in
  let caches = ref (fresh_caches ()) in
  Telemetry.reset ();
  Hashtbl.reset span_ns;
  Gc.compact ();
  reset_peak ();
  let t0 = now () in
  let units = ref 0 in
  let rss_mb = ref None in
  while continues budget ~t0 ~units:!units do
    Speed.tick speed;
    let unit = !units in
    if unit > 0 && Workload.epoch w ~unit <> Workload.epoch w ~unit:(unit - 1) then
      caches := fresh_caches ();
    let cache, traced_cache = !caches in
    for pos = 0 to Workload.unit_size w - 1 do
      let k = Workload.request w ~unit ~pos in
      if not trace then untraced ?cache k
      else if unit mod 2 = 0 then begin
        traced ?cache:traced_cache k;
        untraced ?cache k
      end
      else begin
        untraced ?cache k;
        traced ?cache:traced_cache k
      end
    done;
    incr units;
    if !rss_mb = None && !units * Workload.unit_size w >= rss_requests then
      rss_mb := Some (status_mb "VmHWM")
  done;
  let peak_rss_mb = Option.value !rss_mb ~default:(status_mb "VmHWM") in
  Speed.stop speed;
  Speed.log_summary speed w.Workload.name;
  let at_speed (at, x) = Speed.scaled speed ~at x in
  let layers =
    if trace then layers w st ~untraced_ms:(mean (List.map snd !samples)) else []
  in
  (* output checks on the digest inputs: untraced and uncached is the
     reference; the timed answers and, when tracing, the split stage path
     must reproduce it *)
  let reference k =
    let ( let* ) = Option.bind in
    let inp = input k in
    let* r = guarded (fun () -> Select.run inp) in
    (match seen.(k) with
    | Some a when not (Select.answer_equal a (Select.to_answer r)) ->
      fail c "%s: input %d differs from its uncached selection" w.Workload.name k
    | _ -> ());
    let o = Select.to_output r in
    (if trace then
       match guarded (fun () -> Select.traced (Select.stages ()) inp) with
       | Some t when not (Select.output_equal (Select.to_output t) o) ->
         fail c "%s: input %d: the split stage path differs from Problem.make"
           w.Workload.name k
       | _ -> ());
    Some o
  in
  let outputs =
    List.filter_map reference
      (List.init (min digest_inputs (Array.length packed)) Fun.id)
  in
  {
    samples_ms = Array.of_list (List.map at_speed !samples);
    attempted = !attempted;
    failed = c.failures;
    setup_s = median (List.map at_speed probes);
    reference_ms = Speed.median_ms speed;
    peak_rss_mb;
    digest = Select.digest outputs;
    layers;
    mean_i;
    mean_j;
    mean_candidates;
    gen_s;
  }
