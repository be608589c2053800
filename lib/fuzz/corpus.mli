(** The replayable regression corpus.

    Every counterexample the fuzzer shrinks is persisted as one text file in
    a corpus directory, and the test suite replays every file forever after.
    A corpus file is a small header —

    {v
    # cmd-fuzz counterexample
    oracle eq4-eq9
    seed 4242
    tag full-mapping
    detail Eq.4 gives 3, Eq.9 gives 2 on 01
    payload mapping
    weights 1 1 1
    ---
    v}

    — followed (for [payload mapping]) by a scenario in the
    {!Serialize.Document} textual format, with schemas inferred from the
    case's candidates and tuples. A [payload setcover] file instead carries
    [budget n], [universe e0 e1 ...] and [set NAME e0 ...] lines in the
    header and no document section.

    The format round-trips: [load] of a [save]d entry reconstructs a case
    that is {!Case.equal} to the original, so a corpus entry replays the
    exact failure that produced it (oracle randomness is derived from the
    recorded seed). *)

type entry = {
  oracle : string;  (** name of the oracle family that failed *)
  detail : string;  (** first line of the failure message, or [""] *)
  case : Case.t;
}

val filename : entry -> string
(** [oracle__tag__s<seed>.scn] — deterministic, so re-fuzzing the same seed
    overwrites rather than accumulates. *)

val to_string : entry -> string

val of_string : string -> (entry, string) result

val save : dir : string -> entry -> string
(** Writes [to_string entry] to [dir/filename entry] (creating [dir] if
    needed) and returns the path written. *)

val load : string -> (entry, string) result
(** Reads one corpus file. The error string includes the path; an
    unreadable or missing file is an [Error], never a [Sys_error]. *)

val load_dir : string -> (entry list, string) result
(** Loads every [*.scn] file of a directory in lexicographic filename
    order. Returns [Ok []] if the directory does not exist; the first
    malformed file aborts the load. *)

val scenario_of_string : string -> (Case.payload, string) result
(** A scenario document in the {!Serialize.Document} format, through
    {!Case.of_document}. The error is the positioned parse error. *)

val load_scenario : string -> (Case.payload, string) result
(** The one way a scenario file becomes a payload: a [*.scn] file is a
    corpus entry and yields its case's payload; any other file is a bare
    document read by {!scenario_of_string}. Errors name the path, and an
    unreadable file is an [Error], never a [Sys_error]. *)
