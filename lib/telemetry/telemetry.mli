(** Structured observability: hierarchical spans and monotone counters,
    with pluggable reporters.

    The layer is built for instrumenting hot paths that must stay hot and
    deterministic:

    - {b disabled is (near) free} — every recording entry point starts with
      a single atomic-load-and-branch on the global enabled flag, so
      compiled-in instrumentation costs one predicted branch per call site
      when telemetry is off (guarded by the [telemetry-overhead] section of
      [bench/main.exe]);
    - {b observation never changes results} — nothing here touches
      [Random], solver state, or control flow; enabling telemetry is
      byte-identical to disabling it as far as every instrumented
      computation is concerned (qcheck-verified in [test/test_telemetry.ml]);
    - {b counters merge deterministically} — counters are process-global
      atomics, and instrumented call sites are placed so the same logical
      work performs the same increments whether it runs inline or fanned
      out over a {!Parallel.Pool} of any size. Counter totals are therefore
      a pure function of the workload, for any [--jobs]. (Span {e timings}
      are wall-clock readings and are not part of the determinism contract
      — span {e counts} per name are.)

    Clock readings come from the same monotonic clock as [Util.Timer]
    (bechamel's [CLOCK_MONOTONIC] stub).

    {2 Reporters}

    Three sinks, combinable: a no-op (metrics still accumulate and can be
    read programmatically), a human-readable span tree plus aggregate
    tables written on {!flush} (typically to stderr), and a JSON-lines
    stream for machine diffing — one object per closed span as it closes,
    plus one object per counter and per span aggregate on {!flush}. See
    DESIGN.md § "Observability" for the line schema.

    The [TELEMETRY] environment variable configures the layer at program
    start, so any build (including [dune runtest]) can be traced without
    code changes: [0]/unset — disabled; [1]/[on] — enabled, no-op sink;
    [human] — enabled, human report to stderr at exit; [jsonl:PATH] —
    enabled, JSON lines to [PATH], flushed at exit. *)

val enabled : unit -> bool
(** The global switch, read (atomically) by every recording entry point. *)

val set_enabled : bool -> unit

(** {2 Metrics} *)

module Counter : sig
  type t

  val make : string -> t
  (** [make name] registers (or retrieves — [make] is idempotent per name)
      a process-global monotone counter. Intended to be called once at
      module initialisation; the returned handle is a single atomic. *)

  val incr : t -> unit
  (** One atomic increment when telemetry is enabled; a no-op otherwise. *)

  val add : t -> int -> unit
  (** [add c n] adds [n >= 0]; negative deltas are ignored (counters are
      monotone). No-op when disabled. *)

  val value : t -> int
  val name : t -> string
end

val counters : unit -> (string * int) list
(** Current counter totals, sorted by name. *)

val span_counts : unit -> (string * int) list
(** Closed spans per span name, sorted by name — deterministic for a fixed
    workload, like counters. *)

(** {2 Spans} *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()] inside a span: start/stop on the
    monotonic clock, nested via a per-domain stack (each domain of a
    {!Parallel.Pool} keeps its own stack, so worker-side spans nest under
    worker-side parents only). The span is closed — aggregates updated,
    JSONL line written — when [f] returns or raises; the result or
    exception is propagated untouched. When telemetry is disabled this is
    exactly [f ()] after one branch. *)

val set_span_tap :
  (domain:int -> name:string -> dur_ns:int64 -> unit) option -> unit
(** Installs (or removes) a process-global listener invoked once per closed
    span, from the closing domain, after aggregates are updated. Built for
    live progress streaming (the mapping-selection server forwards span
    closes as progress notifications): because one domain closes one span
    at a time, a consumer can attribute events to in-flight work by
    [domain]. The tap only fires while telemetry is enabled; exceptions it
    raises are swallowed — observation must never change results. *)

(** {2 Sinks and lifecycle} *)

val set_human : out_channel option -> unit
(** Channel for the human report written by {!flush} ([None] = no human
    output). *)

val set_jsonl : out_channel option -> unit
(** Channel for JSON lines. Spans stream as they close; {!flush} appends
    the aggregate objects. [None] = no JSONL output. *)

val flush : unit -> unit
(** Writes the human report and/or the JSONL aggregate records to the
    configured sinks and flushes them. Safe to call with no sinks. *)

val flush_at_exit : unit -> unit
(** Registers {!flush} to run at process exit, at most once per process no
    matter how many times this is called. *)

val reset : unit -> unit
(** Zeroes every counter and clears span aggregates and the buffered span
    tree, keeping registrations and sinks. For tests and multi-phase
    drivers that want per-phase totals. *)
