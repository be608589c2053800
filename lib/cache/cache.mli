(** Content-addressed memoization of per-candidate evaluation results.

    Every solver run re-derives the same expensive structure for a candidate
    st tgd: chase the source instance, then fold the triggers into the
    Eq. 9 [covers]/[errors] statistics ({!Cover.tgd_stats}). Across local
    search restarts, annealing chains, noise-sweep seeds and fuzz cases the
    inputs repeat constantly, so the derivation is cached here, keyed by a
    canonical digest of everything the result depends on — the candidate tgd
    (exact text: variable names fix the chase's null labels), the source and
    target instances, and the coverage semantics. Solver selections are
    cached the same way, keyed by (solver name, seed, problem digest).

    {b Determinism contract} (mirrors the telemetry layer's):

    - {b bit-identity} — a cached result is exactly the value the
      computation would produce. Chase null invention is deterministic per
      [(source, tgd)] (a fresh label counter per run), so a
      {!Cover.tgd_stats} is position-independent except for its [index]
      field, which the cache strips on store and re-applies on return.
      Selections are stored and returned as copies so callers can never
      mutate a cached array.
    - {b jobs-invariant accounting} — lookups are single-flight: the first
      requester of a key counts the miss and computes while concurrent
      requesters wait on it and count hits. Misses therefore equal the
      number of distinct keys computed and hits the remaining lookups —
      both pure functions of the workload, identical for any
      {!Parallel.Pool} size (as long as the working set fits the capacity;
      an eviction can turn a would-be hit into a recomputed miss).

    The cache lives in memory only: a bounded LRU over completed entries,
    gone with the process. Its keys carry no code version, so nothing
    computed by one build is ever read by another. *)

type t

val create : ?capacity : int -> unit -> t
(** [create ()] is a fresh cache holding at most [capacity] completed
    entries (default 16384). Raises [Invalid_argument] when
    [capacity < 1]. *)

val capacity : t -> int

type stats = {
  hits : int;  (** lookups served without running the computation *)
  misses : int;  (** lookups that ran the computation *)
  evictions : int;  (** completed entries dropped by the LRU bound *)
}

val stats : t -> stats
(** Per-cache totals; the [cache.hits]/[cache.misses]/[cache.evictions]
    telemetry counters aggregate the same events across all caches. *)

val of_spec : string -> (t option, string) result
(** Maps the [--cache]/[CACHE_DIR] spelling to a cache: [""] is [Ok None]
    (no cache), ["mem"] a fresh cache, and any other spelling an [Error]
    whose message names it. *)

val default : unit -> (t option, string) result
(** The process-wide cache configured by the [CACHE_DIR] environment
    variable ({!of_spec} on its value; [Ok None] when unset). Evaluated
    once, so every call shares one cache. *)

(** Canonical renderings of the engine's values, for key derivation. Each
    rendering is injective on its type (length-prefixed and
    percent-encoded where needed), so distinct inputs never share a
    digest other than by hash collision.

    The [add_*] writers append a rendering to a buffer; the string
    functions are thin wrappers over them. Every key in the system is
    derived through these writers, and {b every key byte is the old one}:
    the writers emit exactly what the string-concatenating renderers
    emitted, so pinned problem digests and the serving daemon's wire
    digests stay valid. *)
module Key : sig
  val add_enc : Buffer.t -> string -> unit
  (** Percent-encodes every byte outside [[A-Za-z0-9_.~-]] as [%XX]
      (upper-case hex). *)

  val add_int : Buffer.t -> int -> unit
  (** Decimal, exactly [string_of_int]. *)

  val add_value : Buffer.t -> Relational.Value.t -> unit
  (** [C<enc const>] or [N<label>]. *)

  val add_tuple : Buffer.t -> Relational.Tuple.t -> unit
  (** [R<enc rel>] then a space before each value. *)

  val add_instance : Buffer.t -> Relational.Instance.t -> unit
  (** Tuples in [Relational.Instance.tuples] order, comma-separated. *)

  val add_frac : Buffer.t -> Util.Frac.t -> unit
  (** [<num>/<den>] of the reduced fraction. *)

  val add_string_part : Buffer.t -> string -> unit
  (** [add_string_part frame p] appends the framed part [<len>:<p>]. *)

  val add_part : Buffer.t -> Buffer.t -> unit
  (** [add_part frame part] appends [<len>:<contents of part>], so a part
      can be rendered into a reusable buffer with the writers and framed
      without building its string. [part] is left as it was. *)

  val digest_frame : Buffer.t -> string
  (** Hex MD5 of a frame built by {!add_part}/{!add_string_part}. Adds the
      frame's length to the [cache.key_bytes] counter. *)

  val digest : string list -> string
  (** Hex digest of a part list; parts are length-prefixed, so the digest
      is injective in the list (no concatenation ambiguity). Equal to
      {!digest_frame} over the parts framed with {!add_string_part}. *)

  val value : Relational.Value.t -> string

  val tuple : Relational.Tuple.t -> string

  val instance : Relational.Instance.t -> string

  val tgd : Logic.Tgd.t -> string
  (** The exact rendering, label and variable names included — variable
      names determine the chase's null labels, so alpha-variants must not
      share a key. *)

  val frac : Util.Frac.t -> string

  val semantics : Cover.semantics -> string
end

val example_keys :
  source : Relational.Instance.t ->
  j : Relational.Instance.t ->
  string * string
(** [(source_key, data_key)] of one data example: the digests of
    [["src"; source]] and of [["data"; source; j]], the instances rendered
    by {!Key.add_instance}. [data_key] is the expensive half of a
    {!tgd_stats} key and [source_key] the key half of the {!chase} tier.
    Rendering the instances is linear in the data, so callers looking up
    many candidates against one [(source, j)] pair derive these once and
    pass them to every lookup; on a fully warm problem build this is the
    dominant cost, so each instance is rendered once. Runs inside a
    [cache.key] span and adds the bytes of both frames to
    [cache.key_bytes] once. *)

val tgd_stats :
  t ->
  ?semantics : Cover.semantics ->
  ?core : bool ->
  data_key : string ->
  index : int ->
  Logic.Tgd.t ->
  (unit -> Cover.tgd_stats) ->
  Cover.tgd_stats
(** [tgd_stats t ~data_key ~index tgd compute] is [compute ()] memoized
    under the digest of [(semantics, core, tgd, data_key)], with [data_key]
    from {!example_keys} on the example [compute] evaluates against. The [core]
    flag (default [false]) must say whether [compute] runs the core stage
    ({!Cover.stats_of_result}): cored statistics differ from uncored ones
    on the same example, so the flag is part of the key — uncored entries
    keep their historical keys, and the two can never collide. The stored
    value is normalised to candidate position 0 and returned re-indexed at
    [index], so one cached analysis serves a candidate wherever it appears
    in a list. [compute] must derive its result from exactly the keyed
    inputs (chase [source] with [tgd], fold against [j]). *)

val chase :
  t ->
  source_key : string ->
  Logic.Tgd.t ->
  (unit -> Chase.result) ->
  Chase.result
(** [chase t ~source_key tgd compute] memoizes a single-tgd chase of the
    source under [(tgd, source_key)]. The chase depends only on the source
    and the tgd (null labels are deterministic per run), never on the
    target instance — so a noise sweep that perturbs only [J] hits this
    tier at every level. The returned result is shared, not copied;
    callers must treat it as immutable. *)

val selection :
  t ->
  solver : string ->
  seed : int option ->
  problem_key : string ->
  (unit -> bool array) ->
  bool array
(** [selection t ~solver ~seed ~problem_key compute] memoizes a solver's
    selection; [problem_key] must digest the full problem content (see
    [Core.Problem.digest]). Sound because every registered solver is
    deterministic in [(problem, seed)]. The returned array is a fresh
    copy. *)
