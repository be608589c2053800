(** Containment of conjunctive queries (Chandra–Merlin).

    [q ⊆ q'] — every database's answers to [q] are answers to [q'] — holds
    iff there is a homomorphism from [q'] to [q] that fixes the
    distinguished (output) variables. The test freezes [q]'s variables,
    turning its atoms into a canonical instance, and looks for a match of
    [q'] in it. Variables are frozen into labeled nulls with negative labels
    — a namespace disjoint from every constant a query or instance can
    mention and from every chase-invented null — so the test is sound for
    arbitrary data, including constants that look like frozen variables. *)

val freeze :
  ?pinned : String_set.t -> Atom.t list -> Relational.Instance.t * Subst.t
(** [freeze ~pinned atoms] is the canonical instance of [atoms], every
    variable of [atoms] and [pinned] frozen into its own labeled null with
    a negative label, and the substitution mapping each variable of
    [pinned] (default none) to its frozen value. Tgd implication
    ([Chase.Implication]) freezes a body the same way. *)

val contained_in :
  ?distinguished : String_set.t -> Atom.t list -> Atom.t list -> bool
(** [contained_in ~distinguished q q'] is [true] iff [q ⊆ q'] as queries
    with the given output variables (default: none, i.e. boolean queries).
    Variables of [q'] not shared with [distinguished] are matched freely. *)

val equivalent :
  ?distinguished : String_set.t -> Atom.t list -> Atom.t list -> bool

val minimize : ?distinguished : String_set.t -> Atom.t list -> Atom.t list
(** The core of the query: greedily removes atoms whose removal keeps the
    query equivalent (the result is a minimal equivalent subquery —
    unique up to isomorphism by Chandra–Merlin). Atoms containing
    distinguished variables are kept whenever their removal would unbind
    one. *)
