open Relational

type t = {
  config : Config.t;
  source : Schema.t;
  target : Schema.t;
  src_fkeys : Candgen.Fkey.t list;
  tgt_fkeys : Candgen.Fkey.t list;
  correspondences : Candgen.Correspondence.t list;
  candidates : Logic.Tgd.t list;
  ground_truth : Logic.Tgd.t list;
  ground_truth_indices : int list;
  instance_i : Instance.t;
  instance_j : Instance.t;
  j_clean : Instance.t;
}

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>source: %d relations, target: %d relations@,\
     correspondences: %d, candidates: %d (ground truth: %d)@,\
     |I| = %d, |J| = %d (clean %d)@]"
    (Schema.size t.source) (Schema.size t.target)
    (List.length t.correspondences)
    (List.length t.candidates)
    (List.length t.ground_truth)
    (Instance.cardinal t.instance_i)
    (Instance.cardinal t.instance_j)
    (Instance.cardinal t.j_clean)
