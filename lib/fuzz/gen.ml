open Relational
open Logic

let int_in rng lo hi = lo + Random.State.int rng (hi - lo + 1)

let pick rng arr = arr.(Random.State.int rng (Array.length arr))

let chance rng p = Random.State.float rng 1.0 < p

(* --- the small-mapping generator --------------------------------------- *)

type vocab = {
  src_rels : (string * int) array;  (* name, arity *)
  tgt_rels : (string * int) array;
  consts : string array;
  vars : string array;
}

let vocab_gen rng ~n_consts =
  let rels prefix =
    Array.init (int_in rng 1 2) (fun i ->
        (Printf.sprintf "%s%d" prefix i, int_in rng 1 3))
  in
  {
    src_rels = rels "s";
    tgt_rels = rels "u";
    consts = Array.init n_consts (fun i -> Printf.sprintf "c%d" i);
    vars = [| "A"; "B"; "C"; "D" |];
  }

let tuple_gen rng v (name, arity) =
  Tuple.of_consts name (List.init arity (fun _ -> pick rng v.consts))

let body_term rng v =
  if chance rng 0.15 then Term.Cst (pick rng v.consts)
  else Term.Var (pick rng v.vars)

let candidate_gen rng v ~full_only ~label =
  let body =
    List.init (int_in rng 1 2) (fun _ ->
        let name, arity = pick rng v.src_rels in
        Atom.make name (List.init arity (fun _ -> body_term rng v)))
  in
  let body_vars = Atom.vars_of_list body |> String_set.elements |> Array.of_list in
  let head_term rng =
    let r = Random.State.float rng 1.0 in
    if Array.length body_vars > 0 && r < 0.6 then Term.Var (pick rng body_vars)
    else if (not full_only) && r < 0.85 then
      Term.Var (if chance rng 0.5 then "X" else "Y")
    else Term.Cst (pick rng v.consts)
  in
  let head =
    List.init (int_in rng 1 2) (fun _ ->
        let name, arity = pick rng v.tgt_rels in
        Atom.make name (List.init arity (fun _ -> head_term rng)))
  in
  Tgd.make ~label ~body ~head ()

let weights_gen rng =
  if chance rng 0.7 then Core.Problem.default_weights
  else
    {
      Core.Problem.w_unexplained = int_in rng 1 3;
      w_errors = int_in rng 1 3;
      w_size = int_in rng 1 3;
    }

(* The target instance, built the iBench way: ground the chase of a random
   ground-truth subset of the candidates (nulls become fresh constants),
   delete a share of it (piErrors), then add noise tuples (piUnexplained). *)
let target_gen rng v candidates source ~noise_consts ~keep_p ~n_noise =
  let ground_truth = List.filter (fun _ -> chance rng 0.5) candidates in
  let chased = Chase.universal_solution source ground_truth in
  let grounded =
    Instance.map_values
      (function
        | Value.Null k -> Value.Const (Printf.sprintf "v%d" k)
        | Value.Const _ as c -> c)
      chased
  in
  let kept = Instance.filter (fun _ -> chance rng keep_p) grounded in
  let noise_pool = Array.append v.consts noise_consts in
  let noise =
    List.init n_noise (fun _ ->
        let name, arity = pick rng v.tgt_rels in
        Tuple.of_consts name (List.init arity (fun _ -> pick rng noise_pool)))
  in
  Instance.add_all noise kept

let mapping_gen rng ?(full_only = false) ?(n_consts = 5) () =
  let v = vocab_gen rng ~n_consts in
  let candidates =
    List.init (int_in rng 1 6) (fun i ->
        candidate_gen rng v ~full_only ~label:(Printf.sprintf "t%d" i))
  in
  let source =
    Instance.of_tuples
      (List.init (int_in rng 0 6) (fun _ ->
           tuple_gen rng v (pick rng v.src_rels)))
  in
  let noise_consts = Array.init 3 (fun i -> Printf.sprintf "z%d" i) in
  let j =
    target_gen rng v candidates source ~noise_consts ~keep_p:0.75
      ~n_noise:(int_in rng 0 3)
  in
  { Case.source; j; candidates; weights = weights_gen rng }

(* --- adversarial corner cases ------------------------------------------ *)

let empty_j rng =
  let m = mapping_gen rng () in
  { m with Case.j = Instance.empty }

let all_noise_j rng =
  (* target tuples over a constant alphabet disjoint from the source's, so
     every candidate production is an error and coverage can only come from
     (corroborated) invented values *)
  let v = vocab_gen rng ~n_consts:4 in
  let candidates =
    List.init (int_in rng 1 4) (fun i ->
        candidate_gen rng v ~full_only:false ~label:(Printf.sprintf "t%d" i))
  in
  let source =
    Instance.of_tuples
      (List.init (int_in rng 1 5) (fun _ ->
           tuple_gen rng v (pick rng v.src_rels)))
  in
  let noise = Array.init 3 (fun i -> Printf.sprintf "z%d" i) in
  let j =
    Instance.of_tuples
      (List.init (int_in rng 1 5) (fun _ ->
           let name, arity = pick rng v.tgt_rels in
           Tuple.of_consts name (List.init arity (fun _ -> pick rng noise))))
  in
  { Case.source; j; candidates; weights = weights_gen rng }

let dup_candidates rng =
  let m = mapping_gen rng () in
  match m.Case.candidates with
  | [] -> m
  | first :: _ ->
    let dup =
      Tgd.relabel (first.Tgd.label ^ "_dup")
        (List.nth m.Case.candidates
           (Random.State.int rng (List.length m.Case.candidates)))
    in
    { m with Case.candidates = m.Case.candidates @ [ dup ] }

let empty_source rng =
  let m = mapping_gen rng () in
  { m with Case.source = Instance.empty }

(* --- SET COVER instances ------------------------------------------------ *)

let setcover_gen rng =
  let u_size = int_in rng 1 6 in
  let universe = List.init u_size (fun i -> Printf.sprintf "e%d" i) in
  let sets =
    List.init (int_in rng 1 5) (fun i ->
        ( Printf.sprintf "S%d" i,
          List.filter (fun _ -> chance rng 0.5) universe ))
  in
  { Core.Setcover.universe; sets; budget = int_in rng 1 3 }

(* --- genuine iBench scenarios ------------------------------------------ *)

let ibench_gen rng =
  let kinds = Array.of_list Ibench.Primitive.all in
  let n = int_in rng 1 3 in
  let primitives =
    List.sort_uniq compare (List.init n (fun _ -> pick rng kinds))
    |> List.map (fun k -> (k, 1))
  in
  let pis = [| 0; 20; 40; 60 |] in
  let config =
    {
      Ibench.Config.default with
      Ibench.Config.primitives;
      rows_per_relation = int_in rng 2 3;
      pi_corresp = pick rng pis;
      pi_errors = pick rng pis;
      pi_unexplained = pick rng pis;
      seed = Random.State.int rng 0x3FFFFFFF;
    }
  in
  let s = Ibench.Generator.generate config in
  {
    Case.source = s.Ibench.Scenario.instance_i;
    j = s.Ibench.Scenario.instance_j;
    candidates = s.Ibench.Scenario.candidates;
    weights = Core.Problem.default_weights;
  }

(* --- multi-hop chains for the mapping algebra --------------------------- *)

let multihop_gen rng =
  let pis = [| 0; 20; 40 |] in
  let config =
    {
      Ibench.Multihop.relations = int_in rng 1 2;
      arity = int_in rng 1 3;
      rows = int_in rng 2 3;
      hops = int_in rng 2 3;
      pi_corresp = pick rng pis;
      pi_errors = pick rng pis;
      pi_unexplained = pick rng pis;
      seed = Random.State.int rng 0x3FFFFFFF;
    }
  in
  let s = Ibench.Multihop.generate config in
  Case.of_multihop ~weights:(weights_gen rng) s

(* --- family dispatch ---------------------------------------------------- *)

let tags =
  [
    "random-mapping";
    "full-mapping";
    "setcover";
    "ibench";
    "empty-j";
    "all-noise-j";
    "dup-candidates";
    "empty-source";
    "tiny-domain";
    "multihop";
  ]

let case ~seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let r = Random.State.int rng 100 in
  let tag, payload =
    if r < 35 then ("random-mapping", Case.Mapping (mapping_gen rng ()))
    else if r < 55 then
      ("full-mapping", Case.Mapping (mapping_gen rng ~full_only:true ()))
    else if r < 65 then ("setcover", Case.Setcover (setcover_gen rng))
    else if r < 75 then ("ibench", Case.Mapping (ibench_gen rng))
    else if r < 80 then ("empty-j", Case.Mapping (empty_j rng))
    else if r < 85 then ("all-noise-j", Case.Mapping (all_noise_j rng))
    else if r < 90 then ("dup-candidates", Case.Mapping (dup_candidates rng))
    else if r < 93 then ("empty-source", Case.Mapping (empty_source rng))
    else if r < 96 then
      ("tiny-domain", Case.Mapping (mapping_gen rng ~n_consts:1 ()))
    else ("multihop", Case.Multihop (multihop_gen rng))
  in
  { Case.seed; tag; payload }
