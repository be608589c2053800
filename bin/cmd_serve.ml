(* The mapping-selection daemon: NDJSON-RPC over a Unix or TCP socket.

   Thin shell around Server.serve — flag parsing, cache/telemetry wiring
   and a "listening" banner; every protocol and concurrency decision
   lives in lib/server. Telemetry is enabled even without --trace so
   progress notifications (span-sourced) stream to clients that ask for
   them; sinks are only attached when the trace flags say so. *)

open Cmdliner

let run socket port jobs queue deadline_ms cache trace =
  Cli.install_trace trace;
  Telemetry.set_enabled true;
  let endpoint =
    match Cli.resolve_endpoint ~socket ~port with
    | Cli.Unix_socket path -> `Unix_socket path
    | Cli.Tcp (host, p) -> `Tcp (host, p)
  in
  let cache = Cli.resolve_cache cache in
  let config =
    {
      Server.Daemon.endpoint;
      jobs = Cli.resolve_jobs jobs;
      queue;
      deadline_ms = Cli.resolve_deadline deadline_ms;
    }
  in
  if queue < 1 then Cli.die "--queue must be at least 1";
  let on_ready addr =
    let where =
      match addr with
      | Unix.ADDR_UNIX path -> path
      | Unix.ADDR_INET (host, p) ->
        Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) p
    in
    Printf.eprintf "cmd_serve: listening on %s (jobs %d, queue %d)\n%!" where
      config.Server.Daemon.jobs queue
  in
  Server.Daemon.serve ?cache ~on_ready config

let queue =
  Arg.(value & opt int 256 & info [ "queue" ] ~docv:"N"
         ~doc:"Admission-queue capacity; a full queue sheds with a typed \
               $(i,overloaded) error.")

(* the engine makes its own cache when given none, so the daemon only
   validates the spelling *)
let cache =
  Cli.cache_with_doc
    "Accepted for symmetry with the other binaries: the daemon always keeps \
     one in-memory evaluation cache shared by every connection, whether \
     this flag (or $(b,CACHE_DIR)) says $(b,mem), is empty or is unset. \
     Any other spelling exits with status 2."

let cmd =
  let doc = "Serve mapping selection over line-delimited JSON-RPC" in
  Cmd.v
    (Cmd.info "cmd_serve" ~doc)
    Term.(
      const run $ Cli.socket $ Cli.port $ Cli.jobs $ queue
      $ Cli.deadline_ms $ cache $ Cli.trace)

let () = exit (Cmd.eval cmd)
