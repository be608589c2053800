open Relational
open Logic

type mapping = {
  source : Instance.t;
  j : Instance.t;
  candidates : Tgd.t list;
  weights : Core.Problem.weights;
}

type multihop = {
  initial : Instance.t;
  hops : (Tgd.t list * Instance.t) list;
  hop_weights : Core.Problem.weights;
}

type payload =
  | Mapping of mapping
  | Setcover of Core.Setcover.instance
  | Multihop of multihop

type t = {
  seed : int;
  tag : string;
  payload : payload;
}

let problem ?cache m =
  Core.Problem.make ?cache ~weights:m.weights ~source:m.source ~j:m.j
    m.candidates

let of_document (doc : Serialize.Document.t) =
  let candidates =
    match doc.Serialize.Document.tgds with
    | [] ->
      (* no explicit candidates: generate them Clio-style from the
         document's correspondences *)
      Candgen.Generate.generate ~source:doc.Serialize.Document.source
        ~target:doc.Serialize.Document.target
        ~src_fkeys:doc.Serialize.Document.src_fkeys
        ~tgt_fkeys:doc.Serialize.Document.tgt_fkeys
        ~corrs:doc.Serialize.Document.correspondences
    | tgds -> tgds
  in
  Mapping
    {
      source = doc.Serialize.Document.instance_i;
      j = doc.Serialize.Document.instance_j;
      candidates;
      weights = Core.Problem.default_weights;
    }

let of_multihop ~weights (s : Ibench.Multihop.t) =
  {
    initial = s.Ibench.Multihop.source;
    hops =
      List.map
        (fun (h : Ibench.Multihop.hop) ->
          (h.Ibench.Multihop.tgds, h.Ibench.Multihop.observed))
        s.Ibench.Multihop.hops;
    hop_weights = weights;
  }

(* A chain selects over the composed hop pools, with the data example
   (initial, last observed). *)
let end_to_end = function
  | Mapping m -> Some m
  | Setcover _ -> None
  | Multihop mh ->
    Some
      {
        source = mh.initial;
        j =
          (match List.rev mh.hops with
          | (_, observed) :: _ -> observed
          | [] -> Instance.empty);
        candidates = Algebra.compose_all (List.map fst mh.hops);
        weights = mh.hop_weights;
      }

let num_candidates t =
  match t.payload with
  | Mapping m -> List.length m.candidates
  | Setcover s -> List.length s.Core.Setcover.sets
  | Multihop mh ->
    List.fold_left (fun n (tgds, _) -> n + List.length tgds) 0 mh.hops

let num_tuples t =
  match t.payload with
  | Mapping m -> Instance.cardinal m.source + Instance.cardinal m.j
  | Setcover s -> List.length s.Core.Setcover.universe
  | Multihop mh ->
    List.fold_left
      (fun n (_, observed) -> n + Instance.cardinal observed)
      (Instance.cardinal mh.initial)
      mh.hops

let weights_equal (a : Core.Problem.weights) (b : Core.Problem.weights) =
  a.Core.Problem.w_unexplained = b.Core.Problem.w_unexplained
  && a.Core.Problem.w_errors = b.Core.Problem.w_errors
  && a.Core.Problem.w_size = b.Core.Problem.w_size

let equal a b =
  a.seed = b.seed && a.tag = b.tag
  &&
  match a.payload, b.payload with
  | Mapping ma, Mapping mb ->
    Instance.equal ma.source mb.source
    && Instance.equal ma.j mb.j
    && List.length ma.candidates = List.length mb.candidates
    && List.for_all2
         (fun (x : Tgd.t) (y : Tgd.t) ->
           x.Tgd.label = y.Tgd.label && Tgd.equal x y)
         ma.candidates mb.candidates
    && weights_equal ma.weights mb.weights
  | Setcover sa, Setcover sb -> sa = sb
  | Multihop ma, Multihop mb ->
    Instance.equal ma.initial mb.initial
    && weights_equal ma.hop_weights mb.hop_weights
    && List.length ma.hops = List.length mb.hops
    && List.for_all2
         (fun (ta, oa) (tb, ob) ->
           Instance.equal oa ob
           && List.length ta = List.length tb
           && List.for_all2
                (fun (x : Tgd.t) (y : Tgd.t) ->
                  x.Tgd.label = y.Tgd.label && Tgd.equal x y)
                ta tb)
         ma.hops mb.hops
  | (Mapping _ | Setcover _ | Multihop _), _ -> false

let pp ppf t =
  match t.payload with
  | Mapping m ->
    Format.fprintf ppf
      "@[<h>%s (seed %d): %d candidates, %d source + %d target tuples@]" t.tag
      t.seed (List.length m.candidates)
      (Instance.cardinal m.source)
      (Instance.cardinal m.j)
  | Setcover s ->
    Format.fprintf ppf
      "@[<h>%s (seed %d): %d sets over %d elements, budget %d@]" t.tag t.seed
      (List.length s.Core.Setcover.sets)
      (List.length s.Core.Setcover.universe)
      s.Core.Setcover.budget
  | Multihop mh ->
    Format.fprintf ppf
      "@[<h>%s (seed %d): %d hops, %d tgds, %d source + %d observed tuples@]"
      t.tag t.seed (List.length mh.hops) (num_candidates t)
      (Instance.cardinal mh.initial)
      (List.fold_left
         (fun n (_, o) -> n + Instance.cardinal o)
         0 mh.hops)
