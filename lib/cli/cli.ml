open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel phases (default: the \
           $(b,PARALLEL_JOBS) environment variable, else the recommended \
           domain count). Results are identical for every N; 1 disables \
           parallelism.")

let resolve_jobs = function
  | Some j when j >= 1 -> j
  | Some j -> die "--jobs must be a positive integer, got %d" j
  | None -> (
    try Parallel.Pool.default_jobs ()
    with Invalid_argument msg -> die "%s" msg)

let seed ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~doc)

let cache_with_doc doc =
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"mem" ~doc)

let cache =
  cache_with_doc
    "In-memory evaluation cache: memoizes per-candidate chase statistics \
     and solver selections. The only spelling is $(b,mem); empty disables. \
     Default: the $(b,CACHE_DIR) environment variable (same spellings; \
     unset disables). Results are bit-identical with and without the \
     cache."

let resolve_cache spec =
  let source, cache =
    match spec with
    | None -> ("CACHE_DIR", Cache.default ())
    | Some spec -> ("--cache", Cache.of_spec spec)
  in
  match cache with Ok cache -> cache | Error msg -> die "%s: %s" source msg

let socket =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket of the mapping-selection daemon (serve: bind \
           and listen; replay: connect). Exactly one of $(b,--socket) and \
           $(b,--port) must be given.")

let port =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"TCP port of the daemon, on 127.0.0.1.")

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let resolve_endpoint ~socket ~port =
  match socket, port with
  | Some path, None -> Unix_socket path
  | None, Some p when p >= 1 && p <= 65535 -> Tcp ("127.0.0.1", p)
  | None, Some p -> die "--port must be within [1, 65535], got %d" p
  | Some _, Some _ -> die "--socket and --port are mutually exclusive"
  | None, None -> die "an endpoint is required: --socket PATH or --port N"

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request deadline: requests still queued after $(docv) \
           milliseconds are answered with a typed deadline error instead \
           of being solved. Unset means no deadline.")

let resolve_deadline = function
  | None -> None
  | Some ms when ms > 0. -> Some ms
  | Some ms -> die "--deadline-ms must be positive, got %g" ms

let install_signal_flush () =
  let graceful status (_ : int) =
    (* [exit] runs the at_exit chain, which holds the telemetry flush when
       tracing is on — the handler itself never writes to the sinks *)
    exit status
  in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (graceful 143))
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle (graceful 130))
  with Invalid_argument _ | Sys_error _ -> ()

type trace = {
  trace : bool;
  trace_out : string option;
}

let trace =
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print a telemetry report (span tree, span/counter aggregates) \
             to stderr at exit. Observability only: results are identical \
             with and without tracing.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Stream telemetry as JSON lines to $(docv): one object per \
             span as it closes, plus counter and span aggregates at \
             exit. Combinable with $(b,--trace).")
  in
  Term.(
    const (fun trace trace_out -> { trace; trace_out }) $ trace_flag $ trace_out)

let install_trace { trace; trace_out } =
  (match trace_out with
  | None -> ()
  | Some path -> (
    match open_out path with
    | oc -> Telemetry.set_jsonl (Some oc)
    | exception Sys_error msg -> die "--trace-out: %s" msg));
  if trace then Telemetry.set_human (Some stderr);
  if trace || trace_out <> None then begin
    Telemetry.set_enabled true;
    Telemetry.flush_at_exit ()
  end
