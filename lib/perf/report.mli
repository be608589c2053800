(** The machine-readable perf trajectory ([BENCH_<n>.json]).

    [bench/main.exe --json PATH] serialises its measurements — microkernel
    timings, sequential-vs-pool comparisons, the cache cold/warm build
    section and the telemetry overhead probe — into one JSON document per
    run. The committed [BENCH_9.json] is the baseline; CI regenerates a
    fresh report and {!gate}s it against the baseline with a
    multiplicative tolerance band, so the ROADMAP's raw-speed claims are
    tracked numbers instead of prose.

    Timestamps: every section records [at_ms], milliseconds on the
    monotonic clock since the process started measuring. Emission order is
    kernels, then parallel comparisons, then cache, then telemetry, and
    {!validate} checks the concatenated [at_ms] sequence is nondecreasing
    — a cheap structural proof that the file came from one run, in order,
    not from splicing. *)

type kernel = {
  k_name : string;
  ns_per_run : float;  (** bechamel OLS estimate *)
  k_at_ms : float;
}

type ratio = {
  r_name : string;
  value : float;  (** bigger is better; must be finite and positive *)
}

type pool_compare = {
  p_name : string;
  seq_ms : float;
  par_ms : float;
  speedup : float;
  identical : bool;  (** pooled result bit-identical to sequential *)
  p_at_ms : float;
}

type cache_section = {
  uncached_ms : float;
  cold_ms : float;
  warm_ms : float;
  warm_speedup : float;  (** uncached over warm *)
  hits : int;
  misses : int;
  evictions : int;
  hit_rate : float;
  bit_identical : bool;  (** cached problem digest equals uncached *)
  c_at_ms : float;
}

type telemetry_section = {
  disabled_ms : float;
  enabled_ms : float;
  overhead_pct : float;
  within_budget : bool;  (** informational; never gated (too noisy) *)
  t_at_ms : float;
}

type server_section = {
  requests : int;  (** completed requests measured *)
  concurrency : int;  (** client connections driving the daemon *)
  p50_ms : float;  (** median request latency *)
  p99_ms : float;
  mean_ms : float;
  throughput_rps : float;  (** completed requests per wall-clock second *)
  shed : int;  (** typed [overloaded] responses (0 outside shed tests) *)
  coalesced : int;
      (** requests answered without a solver invocation — served by the
          warm cache's single-flight selection tier *)
  s_identical : bool;
      (** every duplicate-content request in the campaign received a
          byte-identical response body; gated like the other identity
          booleans *)
  s_at_ms : float;
}
(** The daemon's latency/throughput section, emitted by
    [bin/serve_replay --json] (schema v2). The gated ratio floors —
    [server.throughput-rps], [server.p50-rps], [server.p99-rps]
    (inverse latencies, bigger is better) — are derived into {!t.ratios}
    so {!gate} covers the daemon with the same machinery as the kernels. *)

type t = {
  schema_version : int;  (** 1 (bench-only) or 2 (optional sections) *)
  bench : int;  (** the trajectory index; 9 for [BENCH_9.json] *)
  jobs : int;  (** pool size used for the parallel/serving section *)
  kernels : kernel list;
      (** may be empty in a v2 server report — {!validate} then requires
          a {!server_section} instead *)
  ratios : ratio list;
      (** derived bigger-is-better numbers (kernel speedups, pool
          speedups, cache warm speedup, server throughput/inverse
          latencies) — the values {!gate} compares *)
  pool : pool_compare list;
  cache : cache_section option;  (** required by schema v1 *)
  telemetry : telemetry_section option;  (** required by schema v1 *)
  server : server_section option;  (** v2 only *)
}

val to_json : t -> Util.Json.t

val of_json : Util.Json.t -> (t, string) result

val save : string -> t -> unit
(** Pretty-printed, trailing newline. Raises [Sys_error] on an unwritable
    path. *)

val load : string -> (t, string) result
(** Read, parse and decode; errors name the path. *)

val validate : t -> string list
(** Schema-level checks, [[]] when clean: a known [schema_version] (v1
    additionally requires the cache and telemetry sections and forbids
    the server one), nonempty ratios, nonempty kernels unless a server
    section carries the report, finite nonnegative timings, finite
    positive ratio values, hit rate within [0, 1], [p50 <= p99], and the
    concatenated [at_ms] sequence (kernels, pool, cache, telemetry,
    server) nondecreasing. *)

val gate : ?band:float -> baseline:t -> fresh:t -> unit -> string list
(** Regression check of [fresh] against [baseline]; [[]] when clean.
    [band] (default 3.0, must be [>= 1]) is the multiplicative tolerance
    absorbing machine-to-machine variance: every baseline ratio must
    reappear in [fresh] with [value >= baseline / band], every baseline
    kernel with [ns_per_run <= baseline * band], every section present in
    the baseline must be present in [fresh], and the fresh boolean
    identities ([identical], [bit_identical], [s_identical]) must hold.
    One ratio carries a band-independent hard floor: a fresh
    [core.km_shrink] below 1.0 is always a violation (coring may never
    grow [K_M]). The telemetry budget verdict is deliberately not gated.
    Both reports are {!validate}d first. *)
