open Relational
open Logic

let v = Fixtures.v

let c = Fixtures.c

(* Brute-force CQ evaluation: try every assignment of query variables to
   values of the active domain (constants and nulls) plus query constants. *)
let brute_force_answers inst atoms =
  let vars =
    List.fold_left
      (fun acc a -> String_set.union acc (Atom.vars a))
      String_set.empty atoms
    |> String_set.elements
  in
  let domain =
    let from_inst =
      Value.Set.elements
        (Value.Set.union (Instance.constants inst) (Instance.null_labels inst))
    in
    let from_query =
      List.concat_map
        (fun (a : Atom.t) ->
          Array.to_list a.Atom.args
          |> List.filter_map (function
               | Term.Cst cst -> Some (Value.Const cst)
               | Term.Var _ -> None))
        atoms
    in
    List.sort_uniq Value.compare (from_inst @ from_query)
  in
  let rec assign vars subst acc =
    match vars with
    | [] ->
      let ok =
        List.for_all
          (fun a -> Instance.mem (Subst.apply_atom_exn subst a) inst)
          atoms
      in
      if ok then subst :: acc else acc
    | x :: rest ->
      List.fold_left
        (fun acc d -> assign rest (Subst.bind_exn x d subst) acc)
        acc domain
  in
  assign vars Subst.empty []

(* The answers that agree with the partial substitution [s], each extended
   with [s]'s bindings: what [Cq.extensions inst s q] must list. *)
let agreeing s answers =
  List.filter_map
    (fun a ->
      List.fold_left
        (fun acc (x, v) -> Option.bind acc (Subst.bind x v))
        (Some a) (Subst.bindings s))
    answers

let subst_set_equal xs ys =
  let norm l = List.sort_uniq Subst.compare l in
  List.equal Subst.equal (norm xs) (norm ys)

let term_tests =
  [
    Alcotest.test_case "ordering" `Quick (fun () ->
        Alcotest.(check bool)
          "var < cst" true
          (Term.compare (Term.Var "x") (Term.Cst "x") < 0));
    Alcotest.test_case "var_name" `Quick (fun () ->
        Alcotest.(check (option string)) "var" (Some "x") (Term.var_name (v "x"));
        Alcotest.(check (option string)) "cst" None (Term.var_name (c "x")));
  ]

let atom_tests =
  [
    Alcotest.test_case "vars_in_order dedups" `Quick (fun () ->
        let a = Atom.make "r" [ v "X"; v "Y"; v "X"; c "k" ] in
        Alcotest.(check (list string)) "order" [ "X"; "Y" ] (Atom.vars_in_order a));
    Alcotest.test_case "conforms_to" `Quick (fun () ->
        let s = Schema.of_relations [ Relation.make "r" [ "a"; "b" ] ] in
        Alcotest.(check bool)
          "ok" true
          (Atom.conforms_to s (Atom.make "r" [ v "X"; v "Y" ]));
        Alcotest.(check bool)
          "bad arity" false
          (Atom.conforms_to s (Atom.make "r" [ v "X" ]));
        Alcotest.(check bool)
          "unknown rel" false
          (Atom.conforms_to s (Atom.make "q" [ v "X"; v "Y" ])));
  ]

let subst_tests =
  [
    Alcotest.test_case "bind conflict" `Quick (fun () ->
        let s = Subst.singleton "x" (Value.Const "a") in
        Alcotest.(check bool)
          "conflict" true
          (Subst.bind "x" (Value.Const "b") s = None);
        Alcotest.(check bool)
          "same ok" true
          (Subst.bind "x" (Value.Const "a") s <> None));
    Alcotest.test_case "apply_atom" `Quick (fun () ->
        let s = Subst.singleton "x" (Value.Const "a") in
        let t = Subst.apply_atom s (Atom.make "r" [ v "x"; c "k" ]) in
        Alcotest.(check bool)
          "grounded" true
          (match t with
          | Some t -> Tuple.equal t (Tuple.of_consts "r" [ "a"; "k" ])
          | None -> false);
        Alcotest.(check bool)
          "unbound" true
          (Subst.apply_atom s (Atom.make "r" [ v "y" ]) = None));
  ]

let parent_child_instance =
  Instance.of_tuples
    [
      Tuple.of_consts "r2" [ "a"; "b" ];
      Tuple.of_consts "r2" [ "b"; "c" ];
      Tuple.of_consts "r2" [ "c"; "d" ];
    ]

let cq_tests =
  [
    Alcotest.test_case "empty query has one answer" `Quick (fun () ->
        Alcotest.(check int)
          "one" 1
          (List.length (Cq.answers parent_child_instance [])));
    Alcotest.test_case "path join" `Quick (fun () ->
        (* r2(X,Y), r2(Y,Z): paths of length 2: a-b-c, b-c-d *)
        let q =
          [ Atom.make "r2" [ v "X"; v "Y" ]; Atom.make "r2" [ v "Y"; v "Z" ] ]
        in
        Alcotest.(check int)
          "two paths" 2
          (List.length (Cq.answers parent_child_instance q)));
    Alcotest.test_case "constants filter" `Quick (fun () ->
        let q = [ Atom.make "r2" [ c "a"; v "Y" ] ] in
        match Cq.answers parent_child_instance q with
        | [ s ] ->
          Alcotest.(check bool)
            "Y=b" true
            (Subst.find_opt "Y" s = Some (Value.Const "b"))
        | other ->
          Alcotest.failf "expected one answer, got %d" (List.length other));
    Alcotest.test_case "repeated variable forces equality" `Quick (fun () ->
        let i = Instance.add (Tuple.of_consts "r2" [ "e"; "e" ]) parent_child_instance in
        let q = [ Atom.make "r2" [ v "X"; v "X" ] ] in
        Alcotest.(check int) "one loop" 1 (List.length (Cq.answers i q)));
    Alcotest.test_case "unsatisfiable constant" `Quick (fun () ->
        let q = [ Atom.make "r2" [ c "zz"; v "Y" ] ] in
        Alcotest.(check bool)
          "no answer" true
          (Cq.answers parent_child_instance q = []);
        Alcotest.(check bool) "holds false" false (Cq.holds parent_child_instance q));
    Alcotest.test_case "order_atoms keeps all atoms" `Quick (fun () ->
        let q =
          [
            Atom.make "r2" [ v "X"; v "Y" ];
            Atom.make "r3" [ v "Y"; v "Z"; v "W" ];
            Atom.make "r2" [ v "Z"; c "k" ];
          ]
        in
        Alcotest.(check int) "3 atoms" 3 (List.length (Cq.order_atoms q)));
  ]

let cq_property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"evaluator agrees with brute force" ~count:200
      (Gen.pair Fixtures.instance_gen Fixtures.cq_gen) (fun (inst, q) ->
        subst_set_equal (Cq.answers inst q) (brute_force_answers inst q));
    Test.make ~name:"holds iff answers nonempty" ~count:200
      (Gen.pair Fixtures.instance_gen Fixtures.cq_gen) (fun (inst, q) ->
        Cq.holds inst q = (Cq.answers inst q <> []));
    Test.make ~name:"indexed evaluator agrees with the brute-force one on shuffled atoms"
      ~count:200
      (Gen.triple Fixtures.instance_gen Fixtures.cq_gen Gen.int)
      (fun (inst, q, seed) ->
        let shuffled =
          Ibench.Generator.shuffle (Random.State.make [| seed |]) q
        in
        subst_set_equal (Cq.answers inst shuffled) (brute_force_answers inst q));
    Test.make ~name:"indexed extensions honour the partial substitution"
      ~count:100 (Gen.pair Fixtures.instance_gen Fixtures.cq_gen)
      (fun (inst, q) ->
        (* bind X to the first constant of the instance, when there is one *)
        match Value.Set.choose_opt (Instance.constants inst) with
        | None -> true
        | Some v ->
          let s = Subst.singleton "X" v in
          subst_set_equal (Cq.extensions inst s q)
            (agreeing s (brute_force_answers inst q)));
    Test.make ~name:"indexed evaluator agrees on instances with nulls"
      ~count:200 (Gen.pair Fixtures.nullable_instance_gen Fixtures.cq_gen)
      (fun (inst, q) ->
        subst_set_equal (Cq.answers inst q) (brute_force_answers inst q));
    Test.make ~name:"indexed extensions agree on instances with nulls"
      ~count:100 (Gen.pair Fixtures.nullable_instance_gen Fixtures.cq_gen)
      (fun (inst, q) ->
        (* bind X to some value of the instance — nulls included *)
        match Instance.tuples inst with
        | [] -> true
        | t :: _ ->
          let s = Subst.singleton "X" t.Relational.Tuple.values.(0) in
          subst_set_equal (Cq.extensions inst s q)
            (agreeing s (brute_force_answers inst q)));
    Test.make ~name:"answers bind exactly the query variables" ~count:200
      (Gen.pair Fixtures.instance_gen Fixtures.cq_gen) (fun (inst, q) ->
        let qvars =
          List.fold_left
            (fun acc a -> String_set.union acc (Atom.vars a))
            String_set.empty q
        in
        List.for_all
          (fun s ->
            List.for_all (fun (x, _) -> String_set.mem x qvars) (Subst.bindings s)
            && Subst.cardinal s = String_set.cardinal qvars)
          (Cq.answers inst q));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let tgd_tests =
  [
    Alcotest.test_case "appendix sizes" `Quick (fun () ->
        Alcotest.(check int) "theta1" 3 (Tgd.size Fixtures.theta1);
        Alcotest.(check int) "theta3" 4 (Tgd.size Fixtures.theta3));
    Alcotest.test_case "full vs existential" `Quick (fun () ->
        Alcotest.(check bool) "theta1 not full" false (Tgd.is_full Fixtures.theta1);
        let full =
          Tgd.make
            ~body:[ Atom.make "r" [ v "X" ] ]
            ~head:[ Atom.make "s" [ v "X" ] ]
            ()
        in
        Alcotest.(check bool) "copy full" true (Tgd.is_full full);
        Alcotest.(check int) "copy size" 2 (Tgd.size full));
    Alcotest.test_case "frontier and existential vars" `Quick (fun () ->
        let fr = Tgd.frontier_vars Fixtures.theta3 in
        let ex = Tgd.existential_vars Fixtures.theta3 in
        Alcotest.(check (list string))
          "frontier" [ "E"; "O"; "P" ] (String_set.elements fr);
        Alcotest.(check (list string)) "existential" [ "T" ] (String_set.elements ex));
    Alcotest.test_case "well_formed" `Quick (fun () ->
        Alcotest.(check bool)
          "theta3 ok" true
          (Tgd.well_formed ~source:Fixtures.source_schema
             ~target:Fixtures.target_schema Fixtures.theta3
          = Ok ());
        let bad =
          Tgd.make
            ~body:[ Atom.make "nosuch" [ v "X" ] ]
            ~head:[ Atom.make "task" [ v "X"; v "X"; v "X" ] ]
            ()
        in
        Alcotest.(check bool)
          "bad rejected" true
          (Tgd.well_formed ~source:Fixtures.source_schema
             ~target:Fixtures.target_schema bad
          <> Ok ()));
    Alcotest.test_case "equal_up_to_renaming" `Quick (fun () ->
        let renamed = Tgd.rename_apart ~suffix:"_1" Fixtures.theta3 in
        Alcotest.(check bool)
          "renamed equal" true
          (Tgd.equal_up_to_renaming Fixtures.theta3 renamed);
        Alcotest.(check bool)
          "different tgds differ" false
          (Tgd.equal_up_to_renaming Fixtures.theta1 Fixtures.theta3));
    Alcotest.test_case "equal_up_to_renaming with reordered head" `Quick
      (fun () ->
        let reordered =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "A"; v "B"; v "C" ] ]
            ~head:
              [
                Atom.make "org" [ v "N"; v "C" ];
                Atom.make "task" [ v "A"; v "B"; v "N" ];
              ]
            ()
        in
        Alcotest.(check bool)
          "reordered equal" true
          (Tgd.equal_up_to_renaming Fixtures.theta3 reordered));
    Alcotest.test_case
      "equal_up_to_renaming counts a physically shared atom twice" `Quick
      (fun () ->
        (* the quick path fails on all three (one shape, differing order),
           so the permutation fallback decides; it must permute positions,
           not atoms, or the shared a1 drops out of every ordering *)
        let a1 = Atom.make "r" [ v "X"; v "Y" ] in
        let a2 = Atom.make "r" [ v "Y"; v "X" ] in
        let head = [ Atom.make "t" [ v "X" ] ] in
        let shared = Tgd.make ~body:[ a1; a1; a2 ] ~head () in
        let unshared =
          Tgd.make
            ~body:
              [
                Atom.make "r" [ v "X"; v "Y" ];
                Atom.make "r" [ v "X"; v "Y" ];
                Atom.make "r" [ v "Y"; v "X" ];
              ]
            ~head ()
        in
        let renamed =
          Tgd.make
            ~body:
              [
                Atom.make "r" [ v "U"; v "W" ];
                Atom.make "r" [ v "W"; v "U" ];
                Atom.make "r" [ v "W"; v "U" ];
              ]
            ~head:[ Atom.make "t" [ v "W" ] ]
            ()
        in
        Alcotest.(check bool) "structurally equal" true (Tgd.equal shared unshared);
        Alcotest.(check bool)
          "unshared" true
          (Tgd.equal_up_to_renaming unshared renamed);
        Alcotest.(check bool)
          "shared" true
          (Tgd.equal_up_to_renaming shared renamed);
        Alcotest.(check bool)
          "not a renaming" false
          (Tgd.equal_up_to_renaming shared
             (Tgd.make ~body:[ a1; a2; a2 ] ~head ())));
    Alcotest.test_case "canonicalize is idempotent" `Quick (fun () ->
        let c1 = Tgd.canonicalize Fixtures.theta3 in
        let c2 = Tgd.canonicalize c1 in
        Alcotest.(check bool) "idempotent" true (Tgd.equal c1 c2));
    Alcotest.test_case "make rejects empty sides" `Quick (fun () ->
        Alcotest.check_raises "empty body" (Invalid_argument "Tgd.make: empty body")
          (fun () ->
            ignore (Tgd.make ~body:[] ~head:[ Atom.make "r" [ v "X" ] ] ()));
        Alcotest.check_raises "empty head" (Invalid_argument "Tgd.make: empty head")
          (fun () ->
            ignore (Tgd.make ~body:[ Atom.make "r" [ v "X" ] ] ~head:[] ())));
  ]

let containment_tests =
  let r2 x y = Atom.make "r2" [ x; y ] in
  [
    Alcotest.test_case "path query contained in single edge" `Quick (fun () ->
        (* r2(X,Y), r2(Y,Z)  ⊆  r2(A,B)  (boolean) *)
        let path = [ r2 (v "X") (v "Y"); r2 (v "Y") (v "Z") ] in
        let edge = [ r2 (v "A") (v "B") ] in
        Alcotest.(check bool) "path in edge" true (Containment.contained_in path edge);
        Alcotest.(check bool) "edge not in path" false (Containment.contained_in edge path));
    Alcotest.test_case "distinguished variables restrict homomorphisms" `Quick
      (fun () ->
        (* with output X, r2(X,Y) is NOT contained in r2(Y,X) *)
        let q = [ r2 (v "X") (v "Y") ] in
        let q' = [ r2 (v "Y") (v "X") ] in
        let dx = String_set.singleton "X" in
        Alcotest.(check bool)
          "boolean: equivalent" true
          (Containment.equivalent q q');
        Alcotest.(check bool)
          "with output: not contained" false
          (Containment.contained_in ~distinguished:dx q q'));
    Alcotest.test_case "constants must match" `Quick (fun () ->
        let qa = [ r2 (c "a") (v "Y") ] in
        let qb = [ r2 (c "b") (v "Y") ] in
        Alcotest.(check bool) "a not in b" false (Containment.contained_in qa qb);
        Alcotest.(check bool)
          "a in generic" true
          (Containment.contained_in qa [ r2 (v "X") (v "Y") ]));
    Alcotest.test_case "minimize removes the redundant atom" `Quick (fun () ->
        (* r2(X,Y), r2(X,Z) minimises to a single atom (boolean query) *)
        let q = [ r2 (v "X") (v "Y"); r2 (v "X") (v "Z") ] in
        Alcotest.(check int) "one atom" 1 (List.length (Containment.minimize q)));
    Alcotest.test_case "minimize keeps genuinely joined atoms" `Quick
      (fun () ->
        (* a real 2-path with a constant endpoint cannot shrink *)
        let q = [ r2 (c "a") (v "Y"); r2 (v "Y") (c "b") ] in
        Alcotest.(check int) "two atoms" 2 (List.length (Containment.minimize q)));
    Alcotest.test_case "minimize respects distinguished variables" `Quick
      (fun () ->
        let q = [ r2 (v "X") (v "Y"); r2 (v "X") (v "Z") ] in
        let dz = String_set.of_list [ "Y"; "Z" ] in
        Alcotest.(check int)
          "cannot drop output atoms" 2
          (List.length (Containment.minimize ~distinguished:dz q)));
    Alcotest.test_case "adversarial frozen-name constants are not captured"
      `Quick (fun () ->
        (* regression: the canonical instance used to freeze variable x as
           the constant "__frz_x", so a query literally mentioning that
           constant evaluated to true over it and containment was claimed;
           freezing now uses nulls, which no constant can equal *)
        let q_var = [ Atom.make "r1" [ v "x" ] ] in
        let q_cst = [ Atom.make "r1" [ c "__frz_x" ] ] in
        Alcotest.(check bool)
          "variable query not contained in constant query" false
          (Containment.contained_in q_var q_cst);
        Alcotest.(check bool)
          "constant query contained in variable query" true
          (Containment.contained_in q_cst q_var));
    Alcotest.test_case "exactly one copy of a duplicated atom survives" `Quick
      (fun () ->
        (* regression: minimize removed atoms by physical equality, so a
           duplicated atom sharing one allocation could never shrink —
           dropping one copy dropped both; removal is positional now *)
        let a = r2 (v "X") (v "Y") in
        Alcotest.(check int)
          "one atom" 1
          (List.length (Containment.minimize [ a; a ])));
  ]

let () =
  Alcotest.run "logic"
    [
      ("term", term_tests);
      ("atom", atom_tests);
      ("subst", subst_tests);
      ("cq", cq_tests);
      ("cq-properties", cq_property_tests);
      ("tgd", tgd_tests);
      ("containment", containment_tests);
    ]
