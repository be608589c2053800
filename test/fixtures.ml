(* Shared test fixtures: the appendix's running example and qcheck
   generators for random relational objects. *)

open Relational
open Logic

let v x = Term.Var x

let c x = Term.Cst x

(* --- the appendix example --------------------------------------------- *)

(* Source: proj(pname, emp, org); target: task(pname, emp, oid),
   org(oid, oname). Reconstructed so that every number in the appendix's
   worked table is reproduced exactly. *)

let source_schema =
  Schema.of_relations [ Relation.make "proj" [ "pname"; "emp"; "org" ] ]

let target_schema =
  Schema.of_relations
    [
      Relation.make "task" [ "pname"; "emp"; "oid" ];
      Relation.make "org" [ "oid"; "oname" ];
    ]

let instance_i =
  Instance.of_tuples
    [
      Tuple.of_consts "proj" [ "BigData"; "Bob"; "IBM" ];
      Tuple.of_consts "proj" [ "ML"; "Alice"; "SAP" ];
    ]

let instance_j =
  Instance.of_tuples
    [
      Tuple.of_consts "task" [ "ML"; "Alice"; "111" ];
      Tuple.of_consts "org" [ "111"; "SAP" ];
      Tuple.of_consts "task" [ "Social"; "Carl"; "222" ];
      Tuple.of_consts "org" [ "222"; "MSR" ];
    ]

let theta1 =
  Tgd.make ~label:"theta1"
    ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
    ~head:[ Atom.make "task" [ v "P"; v "E"; v "T" ] ]
    ()

let theta3 =
  Tgd.make ~label:"theta3"
    ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
    ~head:
      [
        Atom.make "task" [ v "P"; v "E"; v "T" ];
        Atom.make "org" [ v "T"; v "O" ];
      ]
    ()

(* The appendix's extension: [n] extra ML-like projects, i.e. pairs
   proj(Xi, Alice, SAP) in I and task(Xi, Alice, 111) in J. With n >= 5 the
   preferred mapping flips from {} to {theta3}. *)
let extended_example n =
  let name i = Printf.sprintf "Proj%d" i in
  let i' =
    List.fold_left
      (fun acc k ->
        Instance.add (Tuple.of_consts "proj" [ name k; "Alice"; "SAP" ]) acc)
      instance_i
      (List.init n (fun k -> k))
  in
  let j' =
    List.fold_left
      (fun acc k ->
        Instance.add (Tuple.of_consts "task" [ name k; "Alice"; "111" ]) acc)
      instance_j
      (List.init n (fun k -> k))
  in
  (i', j')

(* --- qcheck generators ------------------------------------------------ *)

let small_value_gen =
  QCheck2.Gen.(map (fun i -> Value.Const (Printf.sprintf "c%d" i)) (int_range 0 5))

let tuple_gen ~rel ~arity =
  QCheck2.Gen.(
    map (fun vs -> Tuple.make rel vs) (list_size (return arity) small_value_gen))

(* A random ground instance over relations r2/2 and r3/3. *)
let instance_gen =
  QCheck2.Gen.(
    let* twos = list_size (int_range 0 8) (tuple_gen ~rel:"r2" ~arity:2) in
    let* threes = list_size (int_range 0 8) (tuple_gen ~rel:"r3" ~arity:3) in
    return (Instance.of_tuples (twos @ threes)))

(* Like {!small_value_gen} but a third of the values are labeled nulls, as
   in a chased target instance. *)
let nullable_value_gen =
  QCheck2.Gen.(
    let* k = int_range 0 8 in
    let* null = int_range 0 2 in
    return (if null = 0 then Value.Null k else Value.Const (Printf.sprintf "c%d" k)))

let nullable_tuple_gen ~rel ~arity =
  QCheck2.Gen.(
    map (fun vs -> Tuple.make rel vs) (list_size (return arity) nullable_value_gen))

(* A random instance over r2/2 and r3/3 containing labeled nulls. *)
let nullable_instance_gen =
  QCheck2.Gen.(
    let* twos = list_size (int_range 0 8) (nullable_tuple_gen ~rel:"r2" ~arity:2) in
    let* threes =
      list_size (int_range 0 8) (nullable_tuple_gen ~rel:"r3" ~arity:3)
    in
    return (Instance.of_tuples (twos @ threes)))

(* A pool of six candidate tgds over the appendix vocabulary; random
   selection problems are built by sampling instances and a subset of this
   pool. Shared by the solver property tests and the incremental-evaluator
   differential suite. *)
let selection_candidate_pool =
  [
    theta1;
    theta3;
    Tgd.make ~label:"org_only"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "org" [ v "T"; v "O" ] ]
      ();
    Tgd.make ~label:"swap"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "task" [ v "E"; v "P"; v "T" ] ]
      ();
    Tgd.make ~label:"proj_pair"
      ~body:
        [
          Atom.make "proj" [ v "P"; v "E"; v "O" ];
          Atom.make "proj" [ v "P2"; v "E"; v "O2" ];
        ]
      ~head:[ Atom.make "task" [ v "P"; v "E"; v "T" ] ]
      ();
    Tgd.make ~label:"const_head"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "org" [ v "T"; Term.Cst "SAP" ] ]
      ();
  ]

(* Small random selection problems over the appendix vocabulary. The sizes
   are intentionally tiny (≤ 5 source tuples, ≤ 9 target tuples) so that
   brute force stays cheap and QCheck2's integrated shrinking walks them
   down to minimal counterexamples. *)
let selection_problem_gen =
  let open QCheck2.Gen in
  let mk rel vs = Tuple.of_consts rel vs in
  let source_gen =
    list_size (int_range 1 5)
      (map
         (fun (a, b, c) ->
           mk "proj"
             [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "o%d" c ])
         (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)))
    |> map Instance.of_tuples
  in
  let target_gen =
    let* tasks =
      list_size (int_range 0 5)
        (map
           (fun (a, b, c) ->
             mk "task"
               [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "i%d" c ])
           (triple (int_range 0 2) (int_range 0 2) (int_range 0 2)))
    in
    let* orgs =
      list_size (int_range 0 4)
        (map
           (fun (a, b) ->
             mk "org" [ Printf.sprintf "i%d" a; Printf.sprintf "o%d" b ])
           (pair (int_range 0 2) (int_range 0 2)))
    in
    return (Instance.of_tuples (tasks @ orgs))
  in
  let* src = source_gen and* j = target_gen in
  let* mask = list_size (return (List.length selection_candidate_pool)) bool in
  let cands = List.filteri (fun i _ -> List.nth mask i) selection_candidate_pool in
  let cands = if cands = [] then [ theta1 ] else cands in
  return (Core.Problem.make ~source:src ~j cands)

(* A problem built through [Core.Problem.of_stats] from synthetic
   statistics over the [n] tuples [t(u000)], [t(u001)], ... of J: per
   candidate (each one copy of theta1), its coverage entries as (row,
   degree) pairs, its error count and its size. *)
let synthetic_problem ~w1 ~n cands =
  let j =
    Instance.of_tuples
      (List.init n (fun i -> Tuple.of_consts "t" [ Printf.sprintf "u%03d" i ]))
  in
  let tuples = Array.of_list (Instance.tuples j) in
  let stats =
    List.mapi
      (fun index (rows, (errors, size)) ->
        {
          Cover.index;
          tgd = theta1;
          covers =
            List.fold_left
              (fun acc (ti, d) -> Tuple.Map.add tuples.(ti) d acc)
              Tuple.Map.empty rows;
          rows = Array.of_list rows;
          error_tuples = List.init errors (fun _ -> Tuple.of_consts "e" [ "x" ]);
          produced = errors + List.length rows;
          size;
        })
      cands
  in
  let weights = { Core.Problem.default_weights with Core.Problem.w_unexplained = w1 } in
  Core.Problem.of_stats ~weights ~j (Array.of_list stats)

(* Problems drawn by their supports: one to six candidates (each with a
   drawn size and error count), one to four support patterns
   (each candidate at degree 1/3, 1/2, 2/3 or 1, or absent; a pattern may
   be empty, so its tuples are uncoverable), each shared by one to twelve
   tuples of J, the tuples in random order and each candidate's coverage
   entries shuffled (the fold lists them in map order, not row order). *)
let support_problem_gen =
  let open QCheck2.Gen in
  let* m = int_range 1 6 in
  let degree =
    oneofl
      [ Util.Frac.make 1 3; Util.Frac.make 1 2; Util.Frac.make 2 3; Util.Frac.one ]
  in
  let pattern = list_repeat m (opt degree) in
  let* patterns = list_size (int_range 1 4) (pair pattern (int_range 1 12)) in
  let* tuple_pattern =
    shuffle_l (List.concat (List.mapi (fun k (_, n) -> List.init n (fun _ -> k)) patterns))
  in
  let patterns = Array.of_list (List.map fst patterns) in
  let tuple_pattern = Array.of_list tuple_pattern in
  let entries c =
    Array.to_list tuple_pattern
    |> List.mapi (fun ti k -> Option.map (fun d -> (ti, d)) (List.nth patterns.(k) c))
    |> List.filter_map Fun.id
  in
  let* rows = flatten_l (List.init m (fun c -> shuffle_l (entries c))) in
  let* costs = list_repeat m (pair (int_range 0 2) (int_range 0 4)) in
  let* w1 = int_range 1 3 in
  return
    (synthetic_problem ~w1 ~n:(Array.length tuple_pattern) (List.combine rows costs))

(* --- golden solver outputs (pre-incremental-rewrite) ------------------- *)

(* Captured from the naive-evaluator solver implementations immediately
   before Greedy/Local_search/Anneal were rewired onto Core.Incremental.
   The differential regression suite regenerates the same iBench scenarios
   (fixed seeds) and demands that today's solvers return these exact
   selections and objective values. *)

type golden_scenario = {
  g_name : string;
  g_seed : int;
  g_pi_corresp : int;
  g_pi_errors : int;
  g_pi_unexplained : int;
  g_greedy : int list;  (** [Greedy.solve] *)
  g_local : int list;  (** [Local_search.solve ~restarts:2 ~seed:0] *)
  g_anneal : int list;  (** [Anneal.solve] with default options *)
  g_objective : Util.Frac.t;
      (** objective value of all three pinned selections (the solvers agree
          on these scenarios) *)
}

let golden_problem g =
  let s =
    Ibench.Generator.generate
      (Experiments.Common.noise_config ~seed:g.g_seed
         ~pi_corresp:g.g_pi_corresp ~pi_errors:g.g_pi_errors
         ~pi_unexplained:g.g_pi_unexplained ())
  in
  Core.Problem.make ~source:s.Ibench.Scenario.instance_i
    ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates

let golden_scenarios =
  [
    {
      g_name = "e1-clean";
      g_seed = 1;
      g_pi_corresp = 0;
      g_pi_errors = 0;
      g_pi_unexplained = 0;
      g_greedy = [ 0; 2; 3; 4; 6; 9 ];
      g_local = [ 0; 2; 3; 4; 6; 9 ];
      g_anneal = [ 0; 2; 3; 4; 6; 9 ];
      g_objective = Util.Frac.make 134 3;
    };
    {
      g_name = "noisy-a";
      g_seed = 2;
      g_pi_corresp = 25;
      g_pi_errors = 25;
      g_pi_unexplained = 10;
      g_greedy = [ 3; 4; 5; 12; 15 ];
      g_local = [ 3; 4; 5; 12; 15 ];
      g_anneal = [ 3; 4; 5; 12; 15 ];
      g_objective = Util.Frac.make 139 2;
    };
    {
      g_name = "noisy-b";
      g_seed = 7;
      g_pi_corresp = 50;
      g_pi_errors = 25;
      g_pi_unexplained = 25;
      g_greedy = [ 2; 5; 8; 15; 16; 19 ];
      g_local = [ 2; 5; 8; 15; 16; 19 ];
      g_anneal = [ 2; 5; 8; 15; 16; 19 ];
      g_objective = Util.Frac.make 292 3;
    };
  ]

(* A random conjunctive query over r2/2 and r3/3 with variables from a small
   pool (shared variables make real joins likely). *)
let cq_gen =
  QCheck2.Gen.(
    let var_pool = [ "X"; "Y"; "Z"; "W" ] in
    let term_gen =
      frequency
        [
          (3, map (fun i -> Term.Var (List.nth var_pool i)) (int_range 0 3));
          (1, map (fun i -> Term.Cst (Printf.sprintf "c%d" i)) (int_range 0 5));
        ]
    in
    let atom_gen =
      let* which = bool in
      if which then
        let* a = term_gen and* b = term_gen in
        return (Atom.make "r2" [ a; b ])
      else
        let* a = term_gen and* b = term_gen and* c = term_gen in
        return (Atom.make "r3" [ a; b; c ])
    in
    list_size (int_range 1 3) atom_gen)

(* --- telemetry ------------------------------------------------------- *)

let counter name = Option.value ~default:0 (List.assoc_opt name (Telemetry.counters ()))

(* Counter deltas of [f ()] with telemetry on. *)
let counting names f =
  let was = Telemetry.enabled () in
  Telemetry.set_enabled true;
  let before = List.map counter names in
  let r = Fun.protect ~finally:(fun () -> Telemetry.set_enabled was) f in
  (r, List.map2 (fun name b -> counter name - b) names before)
