(** Shared command-line plumbing for the repo's binaries.

    Every binary used to hand-roll its own [--jobs], [--seed] and tracing
    flags; this module is the single copy. The flags are parsed, validated
    and documented identically everywhere:

    - [--jobs]/[-j] (and the [PARALLEL_JOBS] environment variable) size the
      {!Parallel.Pool}; results are identical for every value, 1 disables
      parallelism. Non-positive values exit with status 2.
    - [--seed] is the deterministic root seed of whatever the binary
      generates.
    - [--trace] prints a human telemetry report (span tree, span/counter
      aggregates) to stderr at exit; [--trace-out FILE] streams JSON-lines
      telemetry to [FILE] (combinable with [--trace]). Either flag enables
      the {!Telemetry} layer; neither changes any result.

    Validation failures exit with status 2, matching [scenario_gen]'s
    config validation. *)

val die : ('a, unit, string, 'b) format4 -> 'a
(** Prints the message to stderr and exits with status 2 — the shared
    usage-error convention. *)

val jobs : int option Cmdliner.Term.t
(** [--jobs]/[-j N]; [None] when omitted. Resolve with {!resolve_jobs}. *)

val resolve_jobs : int option -> int
(** The effective worker count: the flag when given (exit 2 unless
    [>= 1]), else [PARALLEL_JOBS] (exit 2 when set but invalid), else
    [Domain.recommended_domain_count ()]. *)

val seed : default:int -> doc:string -> int Cmdliner.Term.t
(** [--seed N] with the binary's default. *)

val cache : string option Cmdliner.Term.t
(** [--cache mem]; [None] when omitted. Resolve with {!resolve_cache}. *)

val cache_with_doc : string -> string option Cmdliner.Term.t
(** {!cache} under a binary's own help text, for a binary on which the
    flag acts differently. *)

val resolve_cache : string option -> Cache.t option
(** The effective evaluation cache: the flag's spelling when given, else
    the [CACHE_DIR] environment variable ({!Cache.of_spec} either way —
    [""] disables, ["mem"] is an in-memory cache). Any other spelling exits
    with status 2, naming its source ([--cache] or [CACHE_DIR]). Purely an
    optimisation: results are bit-identical with and without. *)

val socket : string option Cmdliner.Term.t
(** [--socket PATH]: a Unix-domain socket endpoint, for the serving
    daemon and its replay harness. Mutually exclusive with {!port};
    enforce with {!resolve_endpoint}. *)

val port : int option Cmdliner.Term.t
(** [--port N]: a TCP endpoint on 127.0.0.1. *)

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

val resolve_endpoint :
  socket:string option -> port:int option -> endpoint
(** The effective endpoint: exactly one of the two flags must be given
    (TCP ports must be within [1, 65535]); anything else exits with
    status 2. *)

val deadline_ms : float option Cmdliner.Term.t
(** [--deadline-ms MS]: per-request deadline. Non-positive values exit
    with status 2 via {!resolve_deadline}. *)

val resolve_deadline : float option -> float option

val install_signal_flush : unit -> unit
(** Installs SIGTERM/SIGINT handlers that end the process through [exit]
    (status 143/130) instead of the default immediate kill. Because [exit]
    runs the [at_exit] chain, the telemetry sinks installed by
    {!install_trace} (or the [TELEMETRY] hook) are flushed — a campaign
    killed mid-stream never truncates its JSONL trace. Long-running
    binaries call this once at startup; the serving daemon installs its own
    handlers (graceful drain) instead. *)

type trace = {
  trace : bool;  (** [--trace]: human report to stderr at exit *)
  trace_out : string option;  (** [--trace-out FILE]: JSONL stream *)
}

val trace : trace Cmdliner.Term.t
(** The two tracing flags, as one term. *)

val install_trace : trace -> unit
(** Enables and wires the {!Telemetry} sinks per the flags (a no-op when
    both are off), registering a single at-exit flush. Exit 2 when the
    [--trace-out] file cannot be opened. *)
