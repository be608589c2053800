(** The warm solving engine behind the daemon: one shared {!Cache.t}, the
    scenario resolver, and the request handler.

    [handle] is deterministic in the request content: the response body of
    a [solve] call depends only on (scenario, solver, seed, weights) —
    never on cache state, concurrency or call order. The cache can only
    change {e how fast} the answer arrives, because every solver in the
    registry is deterministic in [(problem, seed)] and the cache's
    selection tier is keyed by the full {!Core.Problem.digest}.

    Coalescing accounting: [solves] counts actual solver invocations (the
    compute closures the cache actually ran), so for [n] concurrent
    requests with equal content the engine reports [solves = 1] and
    [coalesced = n - 1] — the cache's single-flight lookup ran one
    computation and parked the rest. *)

type t

type stats = {
  handled : int;  (** [solve] requests answered (errors included) *)
  solves : int;  (** solver invocations actually executed *)
  coalesced : int;
      (** successful [solve] responses served without a solver invocation
          (single-flight waiters and warm selection-tier hits) *)
  errors : int;  (** [solve] requests answered with a typed error *)
}

val create : ?cache:Cache.t -> unit -> t
(** A fresh engine. [cache] is the shared warm cache; one of default
    capacity is created when omitted. *)

val stats : t -> stats

val stats_body : t -> extra:(string * Util.Json.t) list -> Util.Json.t
(** The [stats] response body: engine counters plus the cache's
    hit/miss/eviction totals, with [extra] server-level fields (queue
    depth, connections, jobs) appended. *)

val handle :
  t ->
  ?progress:(event:string -> ?name:string -> ?dur_ns:int64 -> unit -> unit) ->
  Protocol.request ->
  Protocol.response
(** Answers one request. Never raises: scenario and solver problems map to
    their typed {!Protocol.error_kind}s, an objective past native integers
    to [Overflow] and anything unexpected to [Internal]. [progress] (only
    invoked for [solve] calls that asked for it) receives lifecycle
    events — [queued] is the server's, the engine emits [started],
    [resolved] (with the problem digest as [name]) and [done];
    span-derived events are routed by the scheduler, not here. *)
