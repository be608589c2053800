(** Batch execution: fan-out of queued solve calls onto the shared
    {!Parallel.Pool}, with deadline enforcement and span-derived progress
    routing.

    The dispatcher (the server's event loop) drains its admission queue
    and hands each batch here, in arrival order. Equal requests need not
    be adjacent: concurrent duplicates coalesce on the cache's
    single-flight selection lookup (one solver invocation, the rest park
    on it), and already-warm keys hit without recomputation. Responses are
    written in arrival order, and every response body is a pure function
    of its request's content, so arrival order and pool size are both
    unobservable in the bytes. *)

type job = {
  request : Protocol.request;
  send : string -> unit;
      (** writes one frame to the requesting connection; must be safe to
          call from pool workers (the server's per-connection writes are
          mutex-serialised) and must swallow writes to a dead peer *)
  deadline_at_ns : int64 option;
      (** absolute monotonic deadline ({!Util.Timer.now_ns} scale) *)
}

val install_tap : unit -> unit
(** Installs the process-global {!Telemetry.set_span_tap} listener that
    forwards span closes as [progress] notifications to the request the
    closing domain is running, if that request asked for progress
    (idempotent; a no-op source of events while no batch runs or telemetry
    is disabled). *)

val run_batch : Engine.t -> pool:Parallel.Pool.t -> job list -> unit
(** Executes one drained batch: jobs whose deadline already passed are
    answered with [deadline_exceeded] without solving; the rest are solved
    as one pool batch and their responses sent in arrival order. Never
    raises. Intended to be called from a single dispatcher (responses
    ordering is per-batch). *)
