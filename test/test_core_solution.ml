(* Core universal solutions and what they lean on:

   1. the chase aliases [Columnar.of_instance] / [Chase.run_columnar] equal
      [Chase.run] trigger for trigger;
   2. Core_solution: worked examples, ground fixpoints, sub-instance
      containment, two-way homomorphic equivalence, idempotence, and a
      wall-clock bound on a chase rich in shared nulls;
   3. the homomorphism search, a [Cq.Plan] over an index, against brute
      force on tiny instances: [hom_exists] equals an enumeration of every
      null assignment, and [core]'s output is a sub-instance the input maps
      into with no proper endomorphism by that enumeration. *)

open Relational
open Logic

let inst = Alcotest.testable Instance.pp Instance.equal

(* --- the chase aliases the pipeline benchmark calls --------------------- *)

(* [Chase.run_columnar] over [Columnar.of_instance] is the row-major chase
   over an index built once per source: it must equal [Chase.run] trigger
   for trigger. *)
let chase_columnar_tests =
  let results_equal (a : Chase.result) (b : Chase.result) =
    Instance.equal a.Chase.solution b.Chase.solution
    && List.length a.Chase.triggers = List.length b.Chase.triggers
    && List.for_all2
         (fun (x : Chase.Trigger.t) (y : Chase.Trigger.t) ->
           x.Chase.Trigger.tgd_index = y.Chase.Trigger.tgd_index
           && Subst.equal (Chase.Trigger.subst x) (Chase.Trigger.subst y)
           && List.equal Tuple.equal x.Chase.Trigger.tuples
                y.Chase.Trigger.tuples)
         a.Chase.triggers b.Chase.triggers
  in
  [
    Alcotest.test_case "run_columnar equals run on the paper example" `Quick
      (fun () ->
        let tgds = [ Fixtures.theta1; Fixtures.theta3 ] in
        let r_row = Chase.run Fixtures.instance_i tgds in
        let r_col =
          Chase.run_columnar (Columnar.of_instance Fixtures.instance_i) tgds
        in
        Alcotest.(check bool) "identical" true (results_equal r_row r_col);
        Alcotest.check inst "same solution" r_row.Chase.solution
          r_col.Chase.solution);
    Alcotest.test_case "run_columnar equals run on the extended example"
      `Quick (fun () ->
        let source, _ = Fixtures.extended_example 6 in
        let candidates = [ Fixtures.theta1; Fixtures.theta3 ] in
        let r_row = Chase.run source candidates in
        let r_col = Chase.run_columnar (Columnar.of_instance source) candidates in
        Alcotest.(check bool) "identical" true (results_equal r_row r_col));
  ]

(* --- Core_solution ------------------------------------------------------- *)

let core_tests =
  let t rel vs = Tuple.make rel vs in
  let cst x = Value.Const x and nul i = Value.Null i in
  [
    Alcotest.test_case "redundant null tuple is retracted" `Quick (fun () ->
        (* R(a, N1) maps into R(a, b): the core keeps only the ground tuple *)
        let i =
          Instance.of_tuples
            [ t "r" [ cst "a"; nul 1 ]; t "r" [ cst "a"; cst "b" ] ]
        in
        Alcotest.check inst "core"
          (Instance.of_tuples [ t "r" [ cst "a"; cst "b" ] ])
          (Chase.Core_solution.core i));
    Alcotest.test_case "null-connected component retracts as a whole" `Quick
      (fun () ->
        (* P(a,N1), Q(N1,c) jointly map onto P(a,b), Q(b,c); both go *)
        let ground = [ t "p" [ cst "a"; cst "b" ]; t "q" [ cst "b"; cst "c" ] ] in
        let i =
          Instance.of_tuples
            (t "p" [ cst "a"; nul 1 ] :: t "q" [ nul 1; cst "c" ] :: ground)
        in
        Alcotest.check inst "core" (Instance.of_tuples ground)
          (Chase.Core_solution.core i));
    Alcotest.test_case "a join-carrying null survives" `Quick (fun () ->
        (* P(a,N1), Q(N1,c) with no ground witness: nothing to retract to *)
        let i =
          Instance.of_tuples [ t "p" [ cst "a"; nul 1 ]; t "q" [ nul 1; cst "c" ] ]
        in
        Alcotest.check inst "core" i (Chase.Core_solution.core i);
        Alcotest.(check bool) "is_core" true (Chase.Core_solution.is_core i));
    Alcotest.test_case "ground instances are their own core" `Quick (fun () ->
        Alcotest.check inst "identity" Fixtures.instance_j
          (Chase.Core_solution.core Fixtures.instance_j);
        Alcotest.(check bool)
          "is_core" true
          (Chase.Core_solution.is_core Fixtures.instance_j));
    Alcotest.test_case "nulls collapse onto each other when compatible" `Quick
      (fun () ->
        (* R(a,N1) and R(a,N2) are homomorphically interchangeable; the
           core keeps exactly one of them (the search keeps the first
           surviving tuple in canonical order) *)
        let i =
          Instance.of_tuples [ t "r" [ cst "a"; nul 1 ]; t "r" [ cst "a"; nul 2 ] ]
        in
        let c = Chase.Core_solution.core i in
        Alcotest.(check int) "one tuple" 1 (Instance.cardinal c);
        Alcotest.(check bool) "subset" true (Instance.subset c i));
    Alcotest.test_case "hom_exists fixes constants" `Quick (fun () ->
        let from = Instance.of_tuples [ t "r" [ cst "a" ] ] in
        let into = Instance.of_tuples [ t "r" [ cst "b" ] ] in
        Alcotest.(check bool)
          "no hom" false
          (Chase.Core_solution.hom_exists ~from ~into);
        Alcotest.(check bool)
          "identity hom" true
          (Chase.Core_solution.hom_exists ~from ~into:from));
    Alcotest.test_case "hom_exists maps nulls anywhere" `Quick (fun () ->
        let from = Instance.of_tuples [ t "r" [ nul 1; nul 1 ] ] in
        let into_ok = Instance.of_tuples [ t "r" [ cst "a"; cst "a" ] ] in
        let into_no = Instance.of_tuples [ t "r" [ cst "a"; cst "b" ] ] in
        Alcotest.(check bool)
          "diagonal" true
          (Chase.Core_solution.hom_exists ~from ~into:into_ok);
        Alcotest.(check bool)
          "off-diagonal" false
          (Chase.Core_solution.hom_exists ~from ~into:into_no));
  ]

(* Eight source rows whose positions share nulls, chased by a tgd whose
   head joins two existentials across four atoms: 32 target tuples in
   null-linked components of up to a dozen. Matching a component's patterns
   in ascending id order, the retraction search backtracked through every
   placement of its independent patterns and did not finish in minutes. *)
let shared_null_chase () =
  let v x = Term.Var x in
  let tgd =
    Tgd.make ~label:"d"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:
        [
          Atom.make "task" [ v "T"; v "V" ];
          Atom.make "org" [ v "O"; v "U" ];
          Atom.make "task" [ v "T"; v "U"; v "P" ];
          Atom.make "org" [ v "T"; v "V" ];
        ]
      ()
  in
  let value = function
    | `N k -> Value.Null k
    | `C x -> Value.Const x
  in
  let row p o = Tuple.make "proj" [ value p; Value.Const "c2"; value o ] in
  let source =
    Instance.of_tuples
      [
        row (`N 102) (`N 102);
        row (`N 101) (`N 102);
        row (`N 101) (`N 101);
        row (`N 101) (`N 100);
        row (`N 100) (`C "c0");
        row (`C "c2") (`C "c0");
        row (`C "c1") (`N 100);
        row (`C "c0") (`N 101);
      ]
  in
  (Chase.run source [ tgd ]).Chase.solution

let shared_null_tests =
  [
    Alcotest.test_case "core of a chase rich in shared nulls within 10 s"
      `Quick (fun () ->
        let solution = shared_null_chase () in
        Alcotest.(check int) "32 chased tuples" 32 (Instance.cardinal solution);
        let start = Unix.gettimeofday () in
        let c = Chase.Core_solution.core solution in
        let elapsed = Unix.gettimeofday () -. start in
        Alcotest.(check bool) "within 10 s" true (elapsed < 10.);
        Alcotest.(check bool) "a sub-instance" true (Instance.subset c solution);
        Alcotest.(check bool) "a core" true (Chase.Core_solution.is_core c);
        Alcotest.(check bool)
          "homomorphically equivalent" true
          (Chase.Core_solution.hom_exists ~from:solution ~into:c));
  ]

let core_qcheck =
  let open QCheck2 in
  let small_nullable_gen =
    Gen.(
      let tuple rel arity =
        map
          (fun vs -> Relational.Tuple.make rel vs)
          (list_size (return arity) Fixtures.nullable_value_gen)
      in
      let* twos = list_size (int_range 0 6) (tuple "r2" 2) in
      let* threes = list_size (int_range 0 4) (tuple "r3" 3) in
      return (Instance.of_tuples (twos @ threes)))
  in
  [
    Test.make ~name:"core is a sub-instance and idempotent" ~count:150
      small_nullable_gen (fun i ->
        let c = Chase.Core_solution.core i in
        Instance.subset c i
        && Instance.equal (Chase.Core_solution.core c) c
        && Chase.Core_solution.is_core c);
    Test.make ~name:"core is homomorphically equivalent to the input"
      ~count:100 small_nullable_gen (fun i ->
        let c = Chase.Core_solution.core i in
        Chase.Core_solution.hom_exists ~from:i ~into:c
        && Chase.Core_solution.hom_exists ~from:c ~into:i);
    Test.make ~name:"core retains every ground tuple" ~count:150
      small_nullable_gen (fun i ->
        let c = Chase.Core_solution.core i in
        List.for_all
          (fun t -> (not (Relational.Tuple.is_ground t)) || Instance.mem t c)
          (Instance.tuples i));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- the search against brute force --------------------------------- *)

(* Tiny instances over at most three nulls and five values, so that every
   assignment of the nulls can be enumerated. *)
let tiny_gen =
  QCheck2.Gen.(
    let value =
      oneofl
        [ Value.Null 1; Value.Null 2; Value.Null 3; Value.Const "c0"; Value.Const "c1" ]
    in
    let tuple rel arity = map (Tuple.make rel) (list_size (return arity) value) in
    let* twos = list_size (int_range 0 5) (tuple "r2" 2) in
    let* threes = list_size (int_range 0 3) (tuple "r3" 3) in
    return (Instance.of_tuples (twos @ threes)))

(* The image of [from] under every assignment of its nulls to the values
   of [into]: a homomorphism maps a null outside those values onto no
   tuple of [into], so no other assignment can be one. *)
let images ~from ~into =
  let values =
    Value.Set.elements
      (Value.Set.union (Instance.constants into) (Instance.null_labels into))
  in
  List.fold_left
    (fun asgs n ->
      List.concat_map (fun asg -> List.map (fun v -> (n, v) :: asg) values) asgs)
    [ [] ]
    (Value.Set.elements (Instance.null_labels from))
  |> List.map (fun asg ->
         Instance.map_values
           (fun v -> Option.value ~default:v (List.assoc_opt v asg))
           from)

let brute_hom ~from ~into =
  List.exists (fun img -> Instance.subset img into) (images ~from ~into)

let brute_proper_endomorphism i =
  List.exists
    (fun img -> Instance.subset img i && not (Instance.equal img i))
    (images ~from:i ~into:i)

let brute_force_qcheck =
  let open QCheck2 in
  let print (i, j) = Format.asprintf "i: %a@.j: %a" Instance.pp i Instance.pp j in
  [
    Test.make ~name:"hom_exists equals enumeration" ~count:300
      ~print (Gen.pair tiny_gen tiny_gen) (fun (i, j) ->
        let agrees ~from ~into =
          Chase.Core_solution.hom_exists ~from ~into = brute_hom ~from ~into
        in
        agrees ~from:j ~into:i
        && List.for_all
             (fun into -> agrees ~from:i ~into)
             (j :: List.map (fun t -> Instance.remove t i) (Instance.tuples i)));
    Test.make ~name:"core has no proper endomorphism" ~count:300
      ~print (Gen.pair tiny_gen tiny_gen) (fun (i, j) ->
        List.for_all
          (fun i ->
            let c = Chase.Core_solution.core i in
            Instance.subset c i
            && brute_hom ~from:i ~into:c
            && not (brute_proper_endomorphism c))
          [ i; Instance.union i j ]);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core-solution"
    [
      ("chase-columnar", chase_columnar_tests);
      ("core", core_tests @ shared_null_tests @ core_qcheck);
      ("brute-force", brute_force_qcheck);
    ]
