(** A complete mapping-selection scenario.

    The data example is [(instance_i, instance_j)]; [instance_j] is the chase
    of [instance_i] under the ground truth with nulls replaced by fresh
    constants, modified by the configured noise. [candidates] always contains
    the ground truth (up to variable renaming); [ground_truth_indices] points
    at it. *)

type t = {
  config : Config.t;
  source : Relational.Schema.t;
  target : Relational.Schema.t;
  src_fkeys : Candgen.Fkey.t list;
  tgt_fkeys : Candgen.Fkey.t list;
  correspondences : Candgen.Correspondence.t list;
      (** the metadata evidence, including any noise correspondences *)
  candidates : Logic.Tgd.t list;  (** C, generated Clio-style *)
  ground_truth : Logic.Tgd.t list;  (** MG *)
  ground_truth_indices : int list;
      (** positions of MG members within [candidates] *)
  instance_i : Relational.Instance.t;
  instance_j : Relational.Instance.t;
  j_clean : Relational.Instance.t;
      (** the target instance before data noise (the grounded chase of MG) *)
}

val pp_summary : Format.formatter -> t -> unit
(** A one-paragraph description: sizes of schemas, instances, candidate
    set. *)
