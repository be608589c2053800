(** Content-addressed memoization of per-candidate evaluation results.

    Every solver run re-derives the same expensive structure for a candidate
    st tgd: chase the source instance, then fold the triggers into the
    Eq. 9 [covers]/[errors] statistics ({!Cover.tgd_stats}). Across local
    search restarts, annealing chains, noise-sweep seeds and fuzz cases the
    inputs repeat constantly, so the derivation is cached here, keyed by a
    canonical digest of everything the result depends on — the candidate tgd
    (exact text: variable names fix the chase's null labels), the source and
    target instances, and the coverage semantics. Four tiers share one
    table:

    - {b chase} ({!chase}): a candidate's triggers, keyed by
      [(tgd, source)];
    - {b stats} ({!tgd_stats}): a candidate's statistics, keyed by
      {!stats_key};
    - {b problem key} ({!problem_key}): a problem build's content digest,
      keyed by the build's inputs, so a repeated build does not hash the
      problem again;
    - {b selection} ({!selection}): a solver's selection, keyed by
      (solver name, seed, problem digest).

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

    The [add_*] functions append a rendering to a {!writer}; {!tgd} and
    {!semantics} return theirs as strings. Every key in the system is
    derived through these functions, and {b every key byte is the old
    one}: they emit exactly what the string-concatenating renderers
    emitted, so pinned problem digests and the serving daemon's wire
    digests stay valid. *)
module Key : sig
  type writer
  (** A growable byte buffer. A key frame is rendered into one writer, each
      part framed in place by {!close_part}, and hashed in place by
      {!digest_frame}: no part is copied into a frame and no frame into a
      string. *)

  val writer : int -> writer
  (** An empty writer with room for the given number of bytes; it grows as
      needed. *)

  val with_scratch : (writer -> 'a) -> 'a
  (** [with_scratch f] runs [f] on the calling domain's reusable writer,
      emptied, so that a large frame is neither allocated nor regrown per
      key. [f] must not keep the writer. A nested call gets a fresh
      writer. *)

  val length : writer -> int

  val contents : writer -> string

  val add_char : writer -> char -> unit

  val add_string : writer -> string -> unit

  val add_copy : writer -> int -> int -> unit
  (** [add_copy w start stop] appends a copy of the bytes [start .. stop - 1]
      already written. *)

  val add_enc : writer -> string -> unit
  (** Percent-encodes every byte outside [[A-Za-z0-9_.~-]] as [%XX]
      (upper-case hex). *)

  val add_int : writer -> int -> unit
  (** Decimal, exactly [string_of_int]. *)

  val add_value : writer -> Relational.Value.t -> unit
  (** [C<enc const>] or [N<label>]. *)

  val add_tuple : writer -> Relational.Tuple.t -> unit
  (** [R<enc rel>] then a space before each value. *)

  val add_instance : writer -> Relational.Instance.t -> unit
  (** Tuples in [Relational.Instance.tuples] order, comma-separated. *)

  val add_frac : writer -> Util.Frac.t -> unit
  (** [<num>/<den>] of the reduced fraction. *)

  val add_string_part : writer -> string -> unit
  (** [add_string_part w p] appends the framed part [<len>:<p>]. *)

  val close_part : writer -> int -> unit
  (** [close_part w start] frames the bytes written since [start] as one
      part: they become [<len>:<bytes>]. A part is rendered with the
      [add_*] functions straight into the frame and closed when done. *)

  val digest_frame : writer -> string
  (** Hex MD5 of a frame built by {!close_part}/{!add_string_part}. Adds the
      frame's length to the [cache.key_bytes] counter. *)

  val digest : string list -> string
  (** Hex digest of a part list; parts are length-prefixed, so the digest
      is injective in the list (no concatenation ambiguity). Equal to
      {!digest_frame} over the parts framed with {!add_string_part}. *)

  val tgd : Logic.Tgd.t -> string
  (** The exact rendering, label and variable names included — variable
      names determine the chase's null labels, so alpha-variants must not
      share a key. *)

  val semantics : Cover.semantics -> string
end

val example_keys :
  source : Relational.Instance.t ->
  j : Relational.Instance.t ->
  string * string
(** [(source_key, data_key)] of one data example: the digests of
    [["src"; source]] and of [["data"; source_key; j]], the instances
    rendered by {!Key.add_instance}. [data_key] is the expensive half of a
    {!stats_key} and [source_key] the key half of the {!chase} tier.
    Rendering the instances is linear in the data, so callers looking up
    many candidates against one [(source, j)] pair derive these once and
    pass them to every lookup; each instance is rendered and hashed once.
    Runs inside a [cache.key] span and adds the bytes of both frames to
    [cache.key_bytes] once. *)

val stats_key :
  ?semantics : Cover.semantics ->
  ?core : bool ->
  data_key : string ->
  Logic.Tgd.t ->
  string
(** The {!tgd_stats} key of a candidate: the digest of
    [(semantics, core, tgd, data_key)], with [data_key] from {!example_keys}.
    The [core] flag (default [false]) says whether the statistics run the
    core stage ({!Cover.Session.stats}): cored statistics differ from
    uncored ones on the same example, so the flag is part of the key —
    uncored keys keep their historical bytes, and the two can never
    collide. *)

val tgd_stats :
  t ->
  key : string ->
  index : int ->
  (unit -> Cover.tgd_stats) ->
  Cover.tgd_stats
(** [tgd_stats t ~key ~index compute] is [compute ()] memoized under [key],
    a {!stats_key} whose inputs are exactly those [compute] evaluates (chase
    [source] with [tgd], fold against [j]). The stored value is normalised
    to candidate position 0 and returned re-indexed at [index], so one
    cached analysis serves a candidate wherever it appears in a list. *)

val problem_key :
  t ->
  build : string list ->
  (unit -> string) ->
  string
(** [problem_key t ~build compute] is [compute ()], a problem's content
    digest, memoized under the digest of ["build" :: build]. [build] must
    determine the problem's content: [Core.Problem.make] passes its weights,
    its [data_key] and each candidate's {!stats_key} in list order. Only the
    digest is stored, never the problem. *)

val chase :
  t ->
  source_key : string ->
  Logic.Tgd.t ->
  (unit -> Chase.Trigger.t list) ->
  Chase.Trigger.t list
(** [chase t ~source_key tgd compute] memoizes a single-tgd chase of the
    source, its triggers ({!Chase.fire}), under [(tgd, source_key)]. The
    chase depends only on the source
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
    [Core.Problem.key]). Sound because every registered solver is
    deterministic in [(problem, seed)]. The returned array is a fresh
    copy. *)
