(** A fuzzing scenario: the unit of generation, oracle checking, shrinking
    and corpus persistence.

    Most cases are {!Mapping} cases — a data example plus a candidate set,
    exactly the input of the selection pipeline. {!Setcover} cases carry a
    SET COVER instance instead, exercising the Theorem 1 reduction and its
    closed-form objective. Every case records the seed it was generated from
    (shrunk descendants keep their ancestor's seed) and a tag naming the
    generator family, so a corpus entry documents its own provenance. *)

type mapping = {
  source : Relational.Instance.t;
  j : Relational.Instance.t;
  candidates : Logic.Tgd.t list;
  weights : Core.Problem.weights;
}

type multihop = {
  initial : Relational.Instance.t;  (** the first hop's source instance *)
  hops : (Logic.Tgd.t list * Relational.Instance.t) list;
      (** per hop: the candidate tgd pool and the observed instance its
          output schema carries; hop [k]'s observed instance is hop
          [k+1]'s input *)
  hop_weights : Core.Problem.weights;
}

type payload =
  | Mapping of mapping
  | Setcover of Core.Setcover.instance
  | Multihop of multihop
      (** an S → T → U (optionally → W) chain — the mapping-algebra
          workload: composition, hop-by-hop vs composed chases, and the
          end-to-end selection problem *)

type t = {
  seed : int;  (** the generator seed this case (or its ancestor) came from *)
  tag : string;  (** generator family, e.g. ["random-mapping"], ["empty-j"] *)
  payload : payload;
}

val problem : ?cache : Cache.t -> mapping -> Core.Problem.t
(** [Problem.make] under the case's weights — the shared precomputation the
    mapping oracles evaluate against. [cache] memoizes the per-candidate
    analysis, bit-identical on or off. *)

val of_document : Serialize.Document.t -> payload
(** A scenario document as a {!Mapping} under the default weights. A
    document without tgds gets its candidates from
    {!Candgen.Generate.generate} over its correspondences. *)

val of_multihop :
  weights : Core.Problem.weights -> Ibench.Multihop.t -> multihop
(** An iBench chain as a multi-hop case: its initial source, and per hop
    the candidate pool and observed instance. *)

val end_to_end : payload -> mapping option
(** The selection problem a payload poses end to end. A mapping case is
    itself. A chain selects over [Algebra.compose_all] of its hop pools,
    with the initial instance as source and the last hop's observed
    instance as J, under [hop_weights]. A SET COVER case has none. This is
    the one place a chain's composed pool is built for selection. *)

val num_candidates : t -> int
(** Candidate tgds of a mapping case; sets of a SET COVER case; total tgds
    across the hops of a multi-hop case. *)

val num_tuples : t -> int
(** Source plus target tuples of a mapping case; universe size of a
    SET COVER case. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** A one-line summary (tag, seed, sizes). *)
