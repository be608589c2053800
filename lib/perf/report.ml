type kernel = {
  k_name : string;
  ns_per_run : float;
  k_at_ms : float;
}

type ratio = {
  r_name : string;
  value : float;
}

type pool_compare = {
  p_name : string;
  seq_ms : float;
  par_ms : float;
  speedup : float;
  identical : bool;
  p_at_ms : float;
}

type cache_section = {
  uncached_ms : float;
  cold_ms : float;
  warm_ms : float;
  warm_speedup : float;
  hits : int;
  misses : int;
  evictions : int;
  hit_rate : float;
  bit_identical : bool;
  c_at_ms : float;
}

type telemetry_section = {
  disabled_ms : float;
  enabled_ms : float;
  overhead_pct : float;
  within_budget : bool;
  t_at_ms : float;
}

type server_section = {
  requests : int;
  concurrency : int;
  p50_ms : float;
  p99_ms : float;
  mean_ms : float;
  throughput_rps : float;
  shed : int;
  coalesced : int;
  s_identical : bool;
  s_at_ms : float;
}

type t = {
  schema_version : int;
  bench : int;
  jobs : int;
  kernels : kernel list;
  ratios : ratio list;
  pool : pool_compare list;
  cache : cache_section option;
  telemetry : telemetry_section option;
  server : server_section option;
}

(* --- JSON encoding ------------------------------------------------------- *)

open Util.Json

let to_json r =
  Obj
    ([
      ("schema_version", Num (float_of_int r.schema_version));
      ("bench", Num (float_of_int r.bench));
      ("jobs", Num (float_of_int r.jobs));
      ( "kernels",
        List
          (List.map
             (fun k ->
               Obj
                 [
                   ("name", Str k.k_name);
                   ("ns_per_run", Num k.ns_per_run);
                   ("at_ms", Num k.k_at_ms);
                 ])
             r.kernels) );
      ( "ratios",
        List
          (List.map
             (fun x -> Obj [ ("name", Str x.r_name); ("value", Num x.value) ])
             r.ratios) );
      ( "pool",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("name", Str p.p_name);
                   ("seq_ms", Num p.seq_ms);
                   ("par_ms", Num p.par_ms);
                   ("speedup", Num p.speedup);
                   ("identical", Bool p.identical);
                   ("at_ms", Num p.p_at_ms);
                 ])
             r.pool) );
    ]
    @ (match r.cache with
      | None -> []
      | Some c ->
        [
          ( "cache",
            Obj
              [
                ("uncached_ms", Num c.uncached_ms);
                ("cold_ms", Num c.cold_ms);
                ("warm_ms", Num c.warm_ms);
                ("warm_speedup", Num c.warm_speedup);
                ("hits", Num (float_of_int c.hits));
                ("misses", Num (float_of_int c.misses));
                ("evictions", Num (float_of_int c.evictions));
                ("hit_rate", Num c.hit_rate);
                ("bit_identical", Bool c.bit_identical);
                ("at_ms", Num c.c_at_ms);
              ] );
        ])
    @ (match r.telemetry with
      | None -> []
      | Some t ->
        [
          ( "telemetry",
            Obj
              [
                ("disabled_ms", Num t.disabled_ms);
                ("enabled_ms", Num t.enabled_ms);
                ("overhead_pct", Num t.overhead_pct);
                ("within_budget", Bool t.within_budget);
                ("at_ms", Num t.t_at_ms);
              ] );
        ])
    @
    (match r.server with
    | None -> []
    | Some s ->
      [
        ( "server",
          Obj
            [
              ("requests", Num (float_of_int s.requests));
              ("concurrency", Num (float_of_int s.concurrency));
              ("p50_ms", Num s.p50_ms);
              ("p99_ms", Num s.p99_ms);
              ("mean_ms", Num s.mean_ms);
              ("throughput_rps", Num s.throughput_rps);
              ("shed", Num (float_of_int s.shed));
              ("coalesced", Num (float_of_int s.coalesced));
              ("identical", Bool s.s_identical);
              ("at_ms", Num s.s_at_ms);
            ] );
      ]))

(* --- JSON decoding ------------------------------------------------------- *)

exception Decode of string

let get what conv key j =
  match Option.bind (member key j) conv with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "%s: missing or bad field '%s'" what key))

let get_list what key j =
  match Option.bind (member key j) to_list with
  | Some l -> l
  | None -> raise (Decode (Printf.sprintf "%s: missing or bad field '%s'" what key))

let of_json j =
  match
    let kernel j =
      {
        k_name = get "kernel" to_str "name" j;
        ns_per_run = get "kernel" to_float "ns_per_run" j;
        k_at_ms = get "kernel" to_float "at_ms" j;
      }
    in
    let ratio j =
      {
        r_name = get "ratio" to_str "name" j;
        value = get "ratio" to_float "value" j;
      }
    in
    let pool_compare j =
      {
        p_name = get "pool" to_str "name" j;
        seq_ms = get "pool" to_float "seq_ms" j;
        par_ms = get "pool" to_float "par_ms" j;
        speedup = get "pool" to_float "speedup" j;
        identical = get "pool" to_bool "identical" j;
        p_at_ms = get "pool" to_float "at_ms" j;
      }
    in
    let cache_section j =
      {
        uncached_ms = get "cache" to_float "uncached_ms" j;
        cold_ms = get "cache" to_float "cold_ms" j;
        warm_ms = get "cache" to_float "warm_ms" j;
        warm_speedup = get "cache" to_float "warm_speedup" j;
        hits = get "cache" to_int "hits" j;
        misses = get "cache" to_int "misses" j;
        evictions = get "cache" to_int "evictions" j;
        hit_rate = get "cache" to_float "hit_rate" j;
        bit_identical = get "cache" to_bool "bit_identical" j;
        c_at_ms = get "cache" to_float "at_ms" j;
      }
    in
    let telemetry_section j =
      {
        disabled_ms = get "telemetry" to_float "disabled_ms" j;
        enabled_ms = get "telemetry" to_float "enabled_ms" j;
        overhead_pct = get "telemetry" to_float "overhead_pct" j;
        within_budget = get "telemetry" to_bool "within_budget" j;
        t_at_ms = get "telemetry" to_float "at_ms" j;
      }
    in
    let server_section j =
      {
        requests = get "server" to_int "requests" j;
        concurrency = get "server" to_int "concurrency" j;
        p50_ms = get "server" to_float "p50_ms" j;
        p99_ms = get "server" to_float "p99_ms" j;
        mean_ms = get "server" to_float "mean_ms" j;
        throughput_rps = get "server" to_float "throughput_rps" j;
        shed = get "server" to_int "shed" j;
        coalesced = get "server" to_int "coalesced" j;
        s_identical = get "server" to_bool "identical" j;
        s_at_ms = get "server" to_float "at_ms" j;
      }
    in
    (* sections are optional at the decoding layer; [validate] enforces
       what each schema version requires *)
    {
      schema_version = get "report" to_int "schema_version" j;
      bench = get "report" to_int "bench" j;
      jobs = get "report" to_int "jobs" j;
      kernels = List.map kernel (get_list "report" "kernels" j);
      ratios = List.map ratio (get_list "report" "ratios" j);
      pool = List.map pool_compare (get_list "report" "pool" j);
      cache = Option.map cache_section (member "cache" j);
      telemetry = Option.map telemetry_section (member "telemetry" j);
      server = Option.map server_section (member "server" j);
    }
  with
  | r -> Ok r
  | exception Decode msg -> Error msg

let save path r =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string_pretty (to_json r));
      Out_channel.output_char oc '\n')

let load path =
  match Util.Json.load path with
  | Error msg -> Error msg
  | Ok j -> (
    match of_json j with
    | Ok r -> Ok r
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* --- validation ---------------------------------------------------------- *)

let validate r =
  let issues = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  let finite_nonneg what v =
    if not (Float.is_finite v && v >= 0.) then
      bad "%s: expected a finite nonnegative number, got %g" what v
  in
  (match r.schema_version with
  | 1 ->
    (* v1 predates optional sections: cache and telemetry are mandatory
       and the server section does not exist yet *)
    if r.cache = None then bad "schema v1: missing cache section";
    if r.telemetry = None then bad "schema v1: missing telemetry section";
    if r.server <> None then bad "schema v1: unexpected server section"
  | 2 -> ()
  | v -> bad "schema_version: expected 1 or 2, got %d" v);
  if r.bench < 1 then bad "bench: expected a positive index, got %d" r.bench;
  if r.jobs < 1 then bad "jobs: expected >= 1, got %d" r.jobs;
  if r.kernels = [] && r.server = None then
    bad "kernels: expected at least one entry (or a server section)";
  if r.ratios = [] then bad "ratios: expected at least one entry";
  List.iter
    (fun k -> finite_nonneg (Printf.sprintf "kernel %s" k.k_name) k.ns_per_run)
    r.kernels;
  List.iter
    (fun x ->
      if not (Float.is_finite x.value && x.value > 0.) then
        bad "ratio %s: expected a finite positive value, got %g" x.r_name
          x.value)
    r.ratios;
  List.iter
    (fun p ->
      finite_nonneg (Printf.sprintf "pool %s seq_ms" p.p_name) p.seq_ms;
      finite_nonneg (Printf.sprintf "pool %s par_ms" p.p_name) p.par_ms;
      if not (Float.is_finite p.speedup && p.speedup > 0.) then
        bad "pool %s: expected a finite positive speedup, got %g" p.p_name
          p.speedup)
    r.pool;
  Option.iter
    (fun c ->
      finite_nonneg "cache uncached_ms" c.uncached_ms;
      finite_nonneg "cache cold_ms" c.cold_ms;
      finite_nonneg "cache warm_ms" c.warm_ms;
      if not (Float.is_finite c.warm_speedup && c.warm_speedup > 0.) then
        bad "cache warm_speedup: expected finite positive, got %g"
          c.warm_speedup;
      if not (Float.is_finite c.hit_rate
              && c.hit_rate >= 0.
              && c.hit_rate <= 1.)
      then bad "cache hit_rate: expected within [0, 1], got %g" c.hit_rate;
      if c.hits < 0 || c.misses < 0 || c.evictions < 0 then
        bad "cache counters: expected nonnegative counts")
    r.cache;
  Option.iter
    (fun t ->
      finite_nonneg "telemetry disabled_ms" t.disabled_ms;
      finite_nonneg "telemetry enabled_ms" t.enabled_ms)
    r.telemetry;
  Option.iter
    (fun s ->
      if s.requests < 1 then
        bad "server requests: expected at least one measured request, got %d"
          s.requests;
      if s.concurrency < 1 then
        bad "server concurrency: expected >= 1, got %d" s.concurrency;
      List.iter
        (fun (what, v) ->
          if not (Float.is_finite v && v > 0.) then
            bad "server %s: expected finite positive, got %g" what v)
        [
          ("p50_ms", s.p50_ms);
          ("p99_ms", s.p99_ms);
          ("mean_ms", s.mean_ms);
          ("throughput_rps", s.throughput_rps);
        ];
      if s.p50_ms > s.p99_ms then
        bad "server latency: p50 %g ms exceeds p99 %g ms" s.p50_ms s.p99_ms;
      if s.shed < 0 || s.coalesced < 0 then
        bad "server counters: expected nonnegative counts")
    r.server;
  (* the concatenated at_ms sequence must be nondecreasing: one run, in
     emission order *)
  let stamps =
    List.map (fun k -> (Printf.sprintf "kernel %s" k.k_name, k.k_at_ms)) r.kernels
    @ List.map (fun p -> (Printf.sprintf "pool %s" p.p_name, p.p_at_ms)) r.pool
    @ (match r.cache with None -> [] | Some c -> [ ("cache", c.c_at_ms) ])
    @ (match r.telemetry with
      | None -> []
      | Some t -> [ ("telemetry", t.t_at_ms) ])
    @ match r.server with None -> [] | Some s -> [ ("server", s.s_at_ms) ]
  in
  List.iter (fun (what, v) -> finite_nonneg (what ^ " at_ms") v) stamps;
  let rec monotone = function
    | (wa, a) :: ((wb, b) :: _ as rest) ->
      if b < a then bad "timestamps not monotone: %s (%g ms) after %s (%g ms)"
          wb b wa a;
      monotone rest
    | [ _ ] | [] -> ()
  in
  monotone stamps;
  List.rev !issues

(* --- the regression gate ------------------------------------------------- *)

let gate ?(band = 3.0) ~baseline ~fresh () =
  if band < 1. then invalid_arg "Report.gate: band must be >= 1";
  let issues = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> issues := m :: !issues) fmt in
  List.iter (fun m -> bad "baseline: %s" m) (validate baseline);
  List.iter (fun m -> bad "fresh: %s" m) (validate fresh);
  if !issues = [] then begin
    if fresh.schema_version <> baseline.schema_version then
      bad "schema_version changed: %d -> %d" baseline.schema_version
        fresh.schema_version;
    List.iter
      (fun (b : ratio) ->
        match
          List.find_opt (fun (f : ratio) -> f.r_name = b.r_name) fresh.ratios
        with
        | None -> bad "ratio %s: missing from the fresh report" b.r_name
        | Some f ->
          let floor = b.value /. band in
          if f.value < floor then
            bad "ratio %s regressed: %.3f < %.3f (baseline %.3f / band %.1f)"
              b.r_name f.value floor b.value band)
      baseline.ratios;
    (* a hard floor, not a band: coring may never grow K_M, so the shrink
       ratio below 1 is a correctness bug regardless of the baseline *)
    List.iter
      (fun (f : ratio) ->
        if f.r_name = "core.km_shrink" && f.value < 1.0 then
          bad "ratio core.km_shrink fell below 1: %.3f (coring grew K_M)"
            f.value)
      fresh.ratios;
    (* likewise a hard floor: a sweep re-served through a cached context
       must stay >= 5x over the uncached grid — the whole point of the
       cache's stats, problem-key and selection tiers — independent of
       whatever the baseline measured *)
    List.iter
      (fun (f : ratio) ->
        if f.r_name = "sweep.warm_speedup" && f.value < 5.0 then
          bad "ratio sweep.warm_speedup fell below 5: %.3f" f.value)
      fresh.ratios;
    List.iter
      (fun (b : kernel) ->
        match
          List.find_opt (fun (f : kernel) -> f.k_name = b.k_name) fresh.kernels
        with
        | None -> bad "kernel %s: missing from the fresh report" b.k_name
        | Some f ->
          let ceiling = b.ns_per_run *. band in
          if f.ns_per_run > ceiling then
            bad
              "kernel %s regressed: %.0f ns > %.0f ns (baseline %.0f ns x \
               band %.1f)"
              b.k_name f.ns_per_run ceiling b.ns_per_run band)
      baseline.kernels;
    List.iter
      (fun (f : pool_compare) ->
        if not f.identical then
          bad "pool %s: pooled result no longer identical to sequential"
            f.p_name)
      fresh.pool;
    (match baseline.cache, fresh.cache with
    | Some _, None -> bad "cache: section missing from the fresh report"
    | _ -> ());
    (match baseline.server, fresh.server with
    | Some _, None -> bad "server: section missing from the fresh report"
    | _ -> ());
    Option.iter
      (fun c ->
        if not c.bit_identical then
          bad "cache: cached problem no longer bit-identical to uncached")
      fresh.cache;
    Option.iter
      (fun s ->
        if not s.s_identical then
          bad
            "server: duplicate requests no longer received identical \
             response bodies")
      fresh.server
  end;
  List.rev !issues
