(** The NDJSON-RPC wire protocol of the mapping-selection service.

    One JSON object per line, both directions. A client sends {e calls} —

    {v
    {"id": "r1", "method": "ping"}
    {"id": "r2", "method": "solve",
     "params": {"solver": "greedy", "seed": 7,
                "scenario": "source relation s(a)\n..."}}
    v}

    — and the server answers each call with exactly one {e response} line
    carrying the echoed [id] and either a ["result"] object or a typed
    ["error"] object, possibly preceded by any number of ["progress"]
    notification lines for that [id]. Responses to different calls may
    interleave in any order; the [id] is the correlation key.

    {b Determinism contract}: the response body of a [solve] call (the
    ["result"]/["error"] member, [id] aside) is a pure function of the
    call's content — scenario, solver, seed, weights — never of arrival
    order, connection, batch boundaries, pool size or cache state. That is the
    engine's bit-identity contract surfaced at the wire, and
    [bin/serve_replay] holds the daemon to it byte-for-byte. Progress
    notifications and [stats] bodies are observational and exempt.

    This module is pure data and codecs: framing is {!Util.Json.parse_line},
    rendering is {!Util.Json.to_string}; sockets live in {!Server}. *)

type scenario =
  | Inline of string
      (** a {!Serialize.Document} in its textual format, read by
          {!Fuzz.Corpus.scenario_of_string}: candidates are generated
          Clio-style from the correspondences when the document lists no
          tgds, as [cmd_select --file] and the rtest runner do *)
  | File of string
      (** server-side path, read by {!Fuzz.Corpus.load_scenario}: a
          [*.scn] corpus entry or a bare scenario document *)
  | Case_seed of int
      (** generate the scenario with {!Fuzz.Gen.case} — tiny request,
          full-size workload; the seed pins the content *)

type solve_params = {
  scenario : scenario;
  solver : string;  (** {!Core.Solver} registry name *)
  seed : int option;
  weights : Core.Problem.weights option;
      (** overrides the scenario's own weights (corpus entries and
          generated cases carry some); default [(1,1,1)] otherwise *)
  deadline_ms : float option;  (** overrides the server default *)
  progress : bool;
      (** stream progress notifications for this call: the lifecycle
          events ([queued], [started], [resolved], [done]) and, while
          telemetry is enabled, one [span] event per span the call's own
          domain closes *)
}

type call =
  | Ping
  | Stats
  | Solve of solve_params
  | Compose of solve_params
      (** the mapping-algebra endpoint: resolve the scenario's hop chain
          (a multi-hop corpus entry, or a single hop for plain scenarios),
          compose it end-to-end with {!Algebra.compose_all}, solve the
          composed selection problem, and report the composed tgds next to
          the usual [solve] fields. Same params object as [solve]. *)
  | Shutdown  (** graceful: drain the queue, flush, exit *)

type request = {
  id : Util.Json.t;  (** [Str] or [Num], echoed verbatim; [Null] only in
                         error responses to unparseable calls *)
  call : call;
}

type error_kind =
  | Parse_error of { line : int; column : int }
      (** the frame was not valid JSON; positions from {!Util.Json} *)
  | Invalid_request  (** valid JSON, not a valid call envelope *)
  | Unknown_method of string
  | Unknown_solver of string
  | Solver_failure of string
      (** a registered solver refused the problem with a typed
          {!Core.Solver_error.Error} (e.g. [exact] past its candidate
          limit); carries the solver name *)
  | Bad_scenario  (** unparseable or unreadable scenario *)
  | Unsupported_case
      (** a [case_seed] that generates a SET COVER case — those exercise
          the Theorem 1 reduction, not the selection pipeline *)
  | Overloaded
      (** typed load-shedding: the admission queue is full; the
          connection stays open and the client may retry *)
  | Deadline_exceeded  (** still queued when the deadline passed *)
  | Shutting_down
  | Overflow
      (** a weight, or the exact objective it scales, does not fit a
          native integer ({!Util.Frac.Overflow}) *)
  | Internal

type response =
  | Result of { id : Util.Json.t; body : Util.Json.t }
  | Error of { id : Util.Json.t; kind : error_kind; message : string }

val response_id : response -> Util.Json.t

val kind_label : error_kind -> string
(** The wire spelling, e.g. ["overloaded"]. *)

val parse_request : string -> (request, response) result
(** Decodes one frame. On failure the [Error] is the ready-to-send
    response: a {!Parse_error} (with the frame's line/column) when the
    frame is not JSON, an {!Invalid_request} or {!Unknown_method}
    (echoing the frame's [id] when one was recoverable) otherwise.
    Unknown [params] fields are rejected, not ignored — a typo'd
    ["seeed"] must not silently select a different problem. *)

val render_response : response -> string
(** One frame, no trailing newline. *)

val render_progress :
  id:Util.Json.t ->
  event:string ->
  ?name:string ->
  ?dur_ns:int64 ->
  unit ->
  string
(** A progress notification frame:
    [{"id": ..., "progress": {"event": E, "name"?: N, "dur_ns"?: D}}]. *)
