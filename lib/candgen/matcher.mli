(** A simple schema matcher: proposes attribute correspondences from name
    similarity.

    The paper takes correspondences as given (produced by a matcher and
    possibly noisy); this module provides a baseline matcher so the library
    is usable end-to-end on schemas without hand-written correspondences.
    The score of a source/target attribute pair combines the normalised
    Levenshtein similarity of the attribute names with a smaller
    contribution from the relation names. *)

val levenshtein : string -> string -> int
(** Classic edit distance (insert/delete/substitute, unit costs). *)

val similarity : string -> string -> float
(** [1 − distance/max-length], case-insensitive; 1.0 for equal strings and
    for two empty strings. A containment of at least three characters
    ("emp" inside "employee") scores at least 0.9, so common abbreviations
    match. *)

val score : src : string * string -> tgt : string * string -> float
(** [score ~src:(rel, attr) ~tgt:(rel', attr')]: 0.8 × attribute-name
    similarity + 0.2 × relation-name similarity. *)

val propose :
  ?threshold : float ->
  source : Relational.Schema.t ->
  target : Relational.Schema.t ->
  unit ->
  Correspondence.t list
(** All pairs scoring at least [threshold] (default 0.75), best matches
    first. Each target attribute is matched at most once {e per source
    relation} (to that relation's best attribute), so several source
    relations can map into the same target relation. *)
