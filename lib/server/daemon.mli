(** The daemon: socket accept/read/write event loop around one warm
    {!Engine.t}, one shared {!Parallel.Pool} and one bounded {!Batcher}.

    Concurrency model: a single dispatcher thread (the caller of {!serve})
    owns all socket IO through a [select] loop and is the only submitter
    of batches to the pool — compute parallelism lives in the pool
    workers, which touch connections only through the mutex-serialised
    per-connection writer. That shape keeps the determinism argument
    short: request bodies are computed by a deterministic engine, framed
    one per line, and correlated by id, so nothing the event loop does
    (arrival interleaving, batch boundaries, worker scheduling) can show
    up in response bytes.

    Lifecycle: [serve] blocks until stopped — by SIGTERM/SIGINT (handlers
    installed by [serve] set the stop flag; the loop notices via [EINTR]),
    by a [shutdown] call from any client, or by an external flip of the
    [stop] atomic (in-process tests). Stopping is graceful: the listener
    closes, every already-admitted job is solved and answered, then
    connections close, {!Cache.sync} re-persists any warm entries missing
    from the disk tier, the pool shuts down, and [serve] returns — so a
    normal [at_exit] telemetry flush still runs. Under SIGKILL the cache
    loses nothing either (entries persist as they complete); only the
    telemetry aggregate lines are lost. *)

type config = {
  endpoint : [ `Unix_socket of string | `Tcp of string * int ];
      (** a filesystem socket path (stale socket files are replaced) or a
          host/port to bind (port [0] binds an ephemeral port — see
          [on_ready]) *)
  jobs : int;  (** pool workers; [1] solves inline in the dispatcher *)
  queue : int;  (** admission-queue capacity; full ⇒ typed [overloaded] *)
  deadline_ms : float option;
      (** default per-call deadline; a call's own [deadline_ms] overrides *)
}

val serve :
  ?cache:Cache.t ->
  ?stop:bool Atomic.t ->
  ?on_ready:(Unix.sockaddr -> unit) ->
  config ->
  unit
(** Runs the daemon to completion. [cache] is the warm cache shared by
    every connection (fresh in-memory one when omitted). [on_ready] is
    called once with the bound address (the actual port for [Tcp (_, 0)])
    after [listen] succeeds — tests connect from its callback. Raises
    [Unix.Unix_error] only for startup failures (bind/listen); per-
    connection errors are contained. *)
