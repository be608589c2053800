(* Core universal solutions and what they lean on:

   1. Bitset: [iter_set], which the retraction search in
      [Chase.Core_solution] reads its survivors with, and [cardinal],
      against a naive int-set model;
   2. the chase aliases [Columnar.of_instance] / [Chase.run_columnar] equal
      [Chase.run] trigger for trigger;
   3. Core_solution: worked examples, ground fixpoints, sub-instance
      containment, two-way homomorphic equivalence, idempotence. *)

open Relational
open Logic
open Util

let inst = Alcotest.testable Instance.pp Instance.equal

(* --- Bitset vs a naive int-set model -------------------------------------- *)

module Int_set = Set.Make (Int)

let bitset_qcheck =
  let open QCheck2 in
  let set_gen =
    Gen.(
      let* width = int_range 1 130 in
      let* bits = list_size (int_range 0 60) (int_range 0 (width - 1)) in
      return (width, bits))
  in
  [
    Test.make ~name:"cardinal matches the model" ~count:300 set_gen
      (fun (width, a) ->
        Bitset.cardinal (Bitset.of_list width a)
        = Int_set.cardinal (Int_set.of_list a));
    Test.make ~name:"iter_set visits the model ascending" ~count:300 set_gen
      (fun (width, a) ->
        let seen = ref [] in
        Bitset.iter_set (fun i -> seen := i :: !seen) (Bitset.of_list width a);
        List.rev !seen = Int_set.elements (Int_set.of_list a));
  ]
  |> List.map QCheck_alcotest.to_alcotest

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
           && Subst.equal x.Chase.Trigger.subst y.Chase.Trigger.subst
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

let () =
  Alcotest.run "core-solution"
    [
      ("bitset", bitset_qcheck);
      ("chase-columnar", chase_columnar_tests);
      ("core", core_tests @ core_qcheck);
    ]
