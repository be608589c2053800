open Relational
open Logic

let v = Fixtures.v

let chase_appendix mapping = Chase.run Fixtures.instance_i mapping

let basic_tests =
  [
    Alcotest.test_case "theta1 produces two task tuples" `Quick (fun () ->
        let { Chase.solution; triggers } = chase_appendix [ Fixtures.theta1 ] in
        Alcotest.(check int) "2 tuples" 2 (Instance.cardinal solution);
        Alcotest.(check int) "2 triggers" 2 (List.length triggers);
        Alcotest.(check int)
          "2 nulls" 2
          (Value.Set.cardinal (Instance.null_labels solution)));
    Alcotest.test_case "theta3 produces task and org per trigger" `Quick
      (fun () ->
        let { Chase.solution; triggers } = chase_appendix [ Fixtures.theta3 ] in
        Alcotest.(check int) "4 tuples" 4 (Instance.cardinal solution);
        List.iter
          (fun (tr : Chase.Trigger.t) ->
            Alcotest.(check int) "2 tuples/trigger" 2 (List.length tr.tuples);
            Alcotest.(check int)
              "1 null/trigger" 1
              (Value.Set.cardinal (Chase.Trigger.nulls tr)))
          triggers);
    Alcotest.test_case "joint chase keeps per-tgd nulls distinct" `Quick
      (fun () ->
        let { Chase.solution; _ } =
          chase_appendix [ Fixtures.theta1; Fixtures.theta3 ]
        in
        (* 2 task (theta1) + 2 task + 2 org (theta3); theta1 invents one null
           per trigger, theta3 one null shared by the task/org pair *)
        Alcotest.(check int) "6 tuples" 6 (Instance.cardinal solution);
        Alcotest.(check int)
          "4 nulls" 4
          (Value.Set.cardinal (Instance.null_labels solution)));
    Alcotest.test_case "full tgd invents no nulls" `Quick (fun () ->
        let full =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "P"; v "O" ] ]
            ()
        in
        let { Chase.solution; _ } = chase_appendix [ full ] in
        Alcotest.(check bool) "ground" true (Instance.is_ground solution));
    Alcotest.test_case "empty mapping yields empty solution" `Quick (fun () ->
        let { Chase.solution; triggers } = chase_appendix [] in
        Alcotest.(check bool) "empty" true (Instance.is_empty solution);
        Alcotest.(check int) "no triggers" 0 (List.length triggers));
    Alcotest.test_case "null source is respected" `Quick (fun () ->
        let nulls = Null_source.create ~first:100 () in
        let { Chase.solution; _ } =
          Chase.run ~nulls Fixtures.instance_i [ Fixtures.theta1 ]
        in
        Value.Set.iter
          (function
            | Value.Null n ->
              Alcotest.(check bool) "label >= 100" true (n >= 100)
            | Value.Const _ -> Alcotest.fail "unexpected constant")
          (Instance.null_labels solution));
    Alcotest.test_case "satisfies: chase result satisfies its tgds" `Quick
      (fun () ->
        let mapping = [ Fixtures.theta1; Fixtures.theta3 ] in
        let { Chase.solution; _ } = chase_appendix mapping in
        Alcotest.(check bool)
          "satisfied" true
          (Chase.satisfies_all ~source:Fixtures.instance_i ~target:solution
             mapping));
    Alcotest.test_case "satisfies: missing target tuple violates" `Quick
      (fun () ->
        Alcotest.(check bool)
          "violated" false
          (Chase.satisfies ~source:Fixtures.instance_i ~target:Instance.empty
             Fixtures.theta1));
    Alcotest.test_case "satisfies: J of the appendix violates theta1" `Quick
      (fun () ->
        (* J has no task tuple for the BigData project, so (I, J) does not
           satisfy theta1. *)
        Alcotest.(check bool)
          "violated" false
          (Chase.satisfies ~source:Fixtures.instance_i
             ~target:Fixtures.instance_j Fixtures.theta1));
  ]

(* Shapes the fuzzer's generator reaches but the appendix example does not:
   tgds with an empty frontier, repeated head atoms sharing existentials,
   and vacuously / trivially satisfied dependencies. *)
let edge_case_tests =
  [
    Alcotest.test_case "empty frontier: head disconnected from body" `Quick
      (fun () ->
        (* No body variable reaches the head, so every trigger invents a
           fresh pair of nulls unrelated to its homomorphism. *)
        let disconnected =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "X"; v "Y" ] ]
            ()
        in
        let ({ Chase.solution; triggers } as result) =
          chase_appendix [ disconnected ]
        in
        Alcotest.(check int) "one trigger per body hom" 2 (List.length triggers);
        Alcotest.(check int)
          "fresh null pair per trigger" 4
          (Value.Set.cardinal (Instance.null_labels solution));
        (match Chase.check_result ~source:Fixtures.instance_i result with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "check_result: %s" msg);
        (* Any target providing one org tuple satisfies it, because the
           existentials are free to map anywhere. *)
        Alcotest.(check bool)
          "one org tuple suffices" true
          (Chase.satisfies ~source:Fixtures.instance_i
             ~target:(Instance.of_tuples [ Tuple.of_consts "org" [ "a"; "b" ] ])
             disconnected);
        Alcotest.(check bool)
          "empty target violates" false
          (Chase.satisfies ~source:Fixtures.instance_i ~target:Instance.empty
             disconnected));
    Alcotest.test_case "repeated head atoms share their existential" `Quick
      (fun () ->
        let repeated =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:
              [
                Atom.make "org" [ v "T"; v "P" ]; Atom.make "org" [ v "T"; v "E" ];
              ]
            ()
        in
        let ({ Chase.triggers; _ } as result) = chase_appendix [ repeated ] in
        List.iter
          (fun (tr : Chase.Trigger.t) ->
            Alcotest.(check int) "two head tuples" 2 (List.length tr.tuples);
            Alcotest.(check int)
              "one shared null" 1
              (Value.Set.cardinal (Chase.Trigger.nulls tr));
            (* both tuples carry the shared null in the first column *)
            List.iter
              (fun (t : Tuple.t) ->
                Alcotest.(check bool)
                  "null in first column" true
                  (Value.is_null t.Tuple.values.(0)))
              tr.tuples)
          triggers;
        match Chase.check_result ~source:Fixtures.instance_i result with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "check_result: %s" msg);
    Alcotest.test_case "identical duplicate head atoms collapse in solution"
      `Quick (fun () ->
        let dup =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:
              [
                Atom.make "org" [ v "X"; v "P" ]; Atom.make "org" [ v "X"; v "P" ];
              ]
            ()
        in
        let ({ Chase.solution; triggers } as result) = chase_appendix [ dup ] in
        (* each trigger lists both head atoms, but the instance dedups *)
        List.iter
          (fun (tr : Chase.Trigger.t) ->
            Alcotest.(check int) "two listed tuples" 2 (List.length tr.tuples))
          triggers;
        Alcotest.(check int) "two distinct tuples" 2 (Instance.cardinal solution);
        match Chase.check_result ~source:Fixtures.instance_i result with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "check_result: %s" msg);
    Alcotest.test_case "vacuous tgd: body relation absent from source" `Quick
      (fun () ->
        let vacuous =
          Tgd.make
            ~body:[ Atom.make "absent" [ v "A" ] ]
            ~head:[ Atom.make "org" [ v "A"; v "A" ] ]
            ()
        in
        let { Chase.solution; triggers } = chase_appendix [ vacuous ] in
        Alcotest.(check bool) "no tuples" true (Instance.is_empty solution);
        Alcotest.(check int) "no triggers" 0 (List.length triggers);
        (* vacuously satisfied by any target, even the empty one *)
        Alcotest.(check bool)
          "satisfied with empty target" true
          (Chase.satisfies ~source:Fixtures.instance_i ~target:Instance.empty
             vacuous));
    Alcotest.test_case "trivially-true tgds under Implication" `Quick (fun () ->
        (* A head that is a sub-conjunction of another's is implied… *)
        let strong =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:
              [
                Atom.make "task" [ v "P"; v "E"; v "T" ];
                Atom.make "org" [ v "T"; v "O" ];
              ]
            ()
        in
        let weak =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "T"; v "O" ] ]
            ()
        in
        Alcotest.(check bool) "head projection" true
          (Chase.Implication.implies strong weak);
        Alcotest.(check bool) "not conversely" false
          (Chase.Implication.implies weak strong);
        (* …a duplicated head atom changes nothing… *)
        let doubled =
          Tgd.make ~body:weak.Tgd.body ~head:(weak.Tgd.head @ weak.Tgd.head) ()
        in
        Alcotest.(check bool) "duplicate head equivalent" true
          (Chase.Implication.equivalent weak doubled);
        (* …and every tgd implies an existentially weakened copy of
           itself. *)
        let weakened =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "T"; v "U" ] ]
            ()
        in
        Alcotest.(check bool) "existential weakening" true
          (Chase.Implication.implies weak weakened));
  ]

(* Random full tgds over the r2/r3 source vocabulary, targeting t2/t3. *)
let full_tgd_gen =
  let open QCheck2.Gen in
  let* body = Fixtures.cq_gen in
  let vars =
    List.fold_left
      (fun acc a -> String_set.union acc (Atom.vars a))
      String_set.empty body
    |> String_set.elements
  in
  match vars with
  | [] -> return None
  | x :: _ ->
    let* y = oneofl vars in
    return
      (Some
         (Tgd.make
            ~body
            ~head:[ Atom.make "t2" [ Term.Var x; Term.Var y ] ]
            ()))

let property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"chase solution satisfies the mapping" ~count:100
      (Gen.pair Fixtures.instance_gen full_tgd_gen) (fun (src, tgd) ->
        match tgd with
        | None -> true
        | Some tgd ->
          let { Chase.solution; _ } = Chase.run src [ tgd ] in
          Chase.satisfies ~source:src ~target:solution tgd);
    Test.make ~name:"one trigger per body answer" ~count:100
      (Gen.pair Fixtures.instance_gen full_tgd_gen) (fun (src, tgd) ->
        match tgd with
        | None -> true
        | Some tgd ->
          let { Chase.triggers; _ } = Chase.run src [ tgd ] in
          List.length triggers = List.length (Cq.answers src tgd.Tgd.body));
    Test.make ~name:"full tgds produce ground solutions" ~count:100
      (Gen.pair Fixtures.instance_gen full_tgd_gen) (fun (src, tgd) ->
        match tgd with
        | None -> true
        | Some tgd -> Instance.is_ground (Chase.universal_solution src [ tgd ]));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* The compiled chase against the map-based one it replaced
   (test/chase_oracle.ml), trigger for trigger and in order: the order
   fixes the null labels, which every later stage reads. Sources carry
   nulls and a relation [m] mixing arities 1 and 2; bodies of 1-3 atoms
   draw from three variables, so a variable often repeats inside one atom,
   and include constants and atoms whose arity some or all tuples of their
   relation lack; heads have up to two existential variables. *)
let oracle_source_gen =
  QCheck2.Gen.(
    let* base = Fixtures.nullable_instance_gen in
    let* ones = list_size (int_range 0 4) (Fixtures.nullable_tuple_gen ~rel:"m" ~arity:1) in
    let* twos = list_size (int_range 0 6) (Fixtures.nullable_tuple_gen ~rel:"m" ~arity:2) in
    return (Instance.add_all (ones @ twos) base))

let oracle_term_gen vars =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun x -> Term.Var x) (oneofl vars));
        (1, map (fun i -> Term.Cst (Printf.sprintf "c%d" i)) (int_range 0 8));
      ])

let oracle_atom_gen ~rels vars =
  QCheck2.Gen.(
    let* rel, arity = oneofl rels in
    let* args = list_size (return arity) (oracle_term_gen vars) in
    return (Atom.make rel args))

let oracle_tgd_gen =
  QCheck2.Gen.(
    let* body =
      list_size (int_range 1 3)
        (oracle_atom_gen
           ~rels:[ ("r2", 2); ("r3", 3); ("m", 1); ("m", 2); ("r2", 3) ]
           [ "X"; "Y"; "Z" ])
    in
    let body_vars =
      String_set.elements
        (List.fold_left
           (fun acc a -> String_set.union acc (Atom.vars a))
           String_set.empty body)
    in
    let* head =
      list_size (int_range 1 2)
        (oracle_atom_gen ~rels:[ ("t2", 2); ("t3", 3) ] ("E2" :: "E1" :: body_vars))
    in
    return (Tgd.make ~body ~head ()))

let oracle_case_gen =
  QCheck2.Gen.(
    let* src = oracle_source_gen in
    let* tgds = list_size (int_range 1 3) oracle_tgd_gen in
    let* x = oneofl [ "X"; "Y"; "Z" ] in
    let* v = Fixtures.nullable_value_gen in
    return (src, tgds, (x, v)))

let oracle_print (src, tgds, (x, v)) =
  Format.asprintf "source: %a@.tgds: %a@.pre-bound: %s=%a" Instance.pp src
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Tgd.pp)
    tgds x Value.pp v

let chase_oracle_tests =
  let open QCheck2 in
  [
    Test.make ~name:"fire equals the map-based chase, trigger for trigger"
      ~count:500 ~print:oracle_print oracle_case_gen (fun (src, tgds, _) ->
        let expected = Chase_oracle.fire (Relational.Index.build src) tgds in
        let actual = Chase.fire ~index:(Cq.Index.build src) src tgds in
        List.length expected = List.length actual
        && List.for_all2
             (fun (o : Chase_oracle.trigger) (tr : Chase.Trigger.t) ->
               o.Chase_oracle.tgd_index = tr.Chase.Trigger.tgd_index
               && Subst.equal o.Chase_oracle.subst (Chase.Trigger.subst tr)
               && List.equal Relational.Tuple.equal o.Chase_oracle.tuples
                    tr.Chase.Trigger.tuples
               && Value.Set.equal o.Chase_oracle.nulls (Chase.Trigger.nulls tr))
             expected actual);
    Test.make ~name:"extensions equals the map-based one, in order"
      ~count:500 ~print:oracle_print oracle_case_gen
      (fun (src, tgds, (x, v)) ->
        let index = Relational.Index.build src in
        List.for_all
          (fun (tgd : Tgd.t) ->
            List.for_all
              (fun s ->
                List.equal Subst.equal
                  (Chase_oracle.extensions index s tgd.Tgd.body)
                  (Cq.extensions src s tgd.Tgd.body))
              [ Subst.empty; Subst.singleton x v; Subst.singleton "Q" v ])
          tgds);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* [Chase.satisfies] (one compiled body, one compiled head with the
   frontier pre-bound, one index per instance) against the per-answer
   definition in test/chase_oracle.ml. Targets are the chase of the
   source, the chase missing one tuple, and random t2/t3 tuples beside
   either, so violations occur (about one check in sixteen). *)
let satisfies_case_gen =
  QCheck2.Gen.(
    let* src, tgds, _ = oracle_case_gen in
    let* noise =
      list_size (int_range 0 6)
        (oneof
           [
             Fixtures.nullable_tuple_gen ~rel:"t2" ~arity:2;
             Fixtures.nullable_tuple_gen ~rel:"t3" ~arity:3;
           ])
    in
    let* drop = int_range 0 7 in
    return (src, tgds, noise, drop))

let satisfies_print (src, tgds, noise, drop) =
  let list pp = Format.pp_print_list ~pp_sep:Format.pp_print_space pp in
  Format.asprintf "source: %a@.tgds: %a@.noise: %a@.drop: %d" Instance.pp src
    (list Tgd.pp) tgds (list Relational.Tuple.pp) noise drop

let satisfies_oracle_tests =
  let open QCheck2 in
  [
    Test.make ~name:"satisfies equals per-answer check" ~count:500
      ~print:satisfies_print satisfies_case_gen (fun (src, tgds, noise, drop) ->
        let solution = Chase.universal_solution src tgds in
        let dropped =
          match List.nth_opt (Instance.tuples solution) drop with
          | Some t -> Instance.remove t solution
          | None -> solution
        in
        let noise = Instance.of_tuples noise in
        List.for_all
          (fun target ->
            List.for_all
              (fun tgd ->
                Chase.satisfies ~source:src ~target tgd
                = Chase_oracle.satisfies ~source:src ~target tgd)
              tgds
            && Chase.satisfies_all ~source:src ~target tgds
               = List.for_all (Chase_oracle.satisfies ~source:src ~target) tgds)
          [ solution; dropped; noise; Instance.union dropped noise ]);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* implication and certain-answer tests *)

let implication_tests =
  [
    Alcotest.test_case "theta3 implies theta1" `Quick (fun () ->
        Alcotest.(check bool)
          "implies" true
          (Chase.Implication.implies Fixtures.theta3 Fixtures.theta1));
    Alcotest.test_case "theta1 does not imply theta3" `Quick (fun () ->
        Alcotest.(check bool)
          "no" false
          (Chase.Implication.implies Fixtures.theta1 Fixtures.theta3));
    Alcotest.test_case "every tgd implies itself" `Quick (fun () ->
        List.iter
          (fun t ->
            Alcotest.(check bool) "self" true (Chase.Implication.implies t t))
          [ Fixtures.theta1; Fixtures.theta3 ]);
    Alcotest.test_case "redundant duplicate body atom is equivalent" `Quick
      (fun () ->
        let v = Fixtures.v in
        let doubled =
          Tgd.make
            ~body:
              [
                Atom.make "proj" [ v "P"; v "E"; v "O" ];
                Atom.make "proj" [ v "P"; v "E"; v "O2" ];
              ]
            ~head:[ Atom.make "task" [ v "P"; v "E"; v "T" ] ]
            ()
        in
        Alcotest.(check bool)
          "equivalent" true
          (Chase.Implication.equivalent Fixtures.theta1 doubled);
        Alcotest.(check bool)
          "but not renaming-equal" false
          (Tgd.equal_up_to_renaming Fixtures.theta1 doubled));
    Alcotest.test_case "implication respects constants" `Quick (fun () ->
        let v = Fixtures.v in
        let specific =
          Tgd.make
            ~body:[ Atom.make "proj" [ Term.Cst "ML"; v "E"; v "O" ] ]
            ~head:[ Atom.make "task" [ Term.Cst "ML"; v "E"; v "T" ] ]
            ()
        in
        (* the general rule implies the specific one, not vice versa *)
        Alcotest.(check bool)
          "general => specific" true
          (Chase.Implication.implies Fixtures.theta1 specific);
        Alcotest.(check bool)
          "specific !=> general" false
          (Chase.Implication.implies specific Fixtures.theta1));
    Alcotest.test_case "minimize drops the implied weaker candidate" `Quick
      (fun () ->
        (* theta3 implies theta1 but is larger, so minimize must keep both;
           a duplicate of theta1 (same size) is dropped *)
        let dup = Tgd.rename_apart ~suffix:"_d" Fixtures.theta1 in
        let kept =
          Chase.Implication.minimize [ Fixtures.theta1; Fixtures.theta3; dup ]
        in
        Alcotest.(check int) "two survive" 2 (List.length kept);
        Alcotest.(check bool)
          "theta3 kept" true
          (List.exists (Tgd.equal_up_to_renaming Fixtures.theta3) kept));
    Alcotest.test_case "minimize keeps incomparable candidates" `Quick
      (fun () ->
        let v = Fixtures.v in
        let other =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "T"; v "O" ] ]
            ()
        in
        Alcotest.(check int)
          "both kept" 2
          (List.length (Chase.Implication.minimize [ Fixtures.theta1; other ])));
    Alcotest.test_case "adversarial frozen-name constants are not captured"
      `Quick (fun () ->
        (* regression: freezing used to encode a frozen variable A as the
           constant "__frz_A_w", so a tgd that literally mentions that
           constant matched the frozen body and the constant-specific rule
           "implied" the universal one; freezing now uses nulls *)
        let v = Fixtures.v in
        let general =
          Tgd.make
            ~body:[ Atom.make "s0" [ v "A" ] ]
            ~head:[ Atom.make "u0" [ v "A" ] ]
            ()
        in
        let adversarial =
          Tgd.make
            ~body:[ Atom.make "s0" [ Term.Cst "__frz_A_w" ] ]
            ~head:[ Atom.make "u0" [ Term.Cst "__frz_A_w" ] ]
            ()
        in
        Alcotest.(check bool)
          "constant rule does not imply the universal rule" false
          (Chase.Implication.implies adversarial general);
        Alcotest.(check bool)
          "universal rule still implies the constant rule" true
          (Chase.Implication.implies general adversarial));
  ]

let minimize_tgd_tests =
  [
    Alcotest.test_case "redundant body atom removed" `Quick (fun () ->
        let v = Fixtures.v in
        let bloated =
          Tgd.make ~label:"bloated"
            ~body:
              [
                Atom.make "proj" [ v "P"; v "E"; v "O" ];
                Atom.make "proj" [ v "P2"; v "E2"; v "O2" ];
              ]
            ~head:[ Atom.make "task" [ v "P"; v "E"; v "T" ] ]
            ()
        in
        let minimal = Chase.Implication.minimize_tgd bloated in
        Alcotest.(check int) "one body atom" 1 (List.length minimal.Tgd.body);
        Alcotest.(check bool)
          "equivalent to theta1" true
          (Chase.Implication.equivalent minimal Fixtures.theta1);
        Alcotest.(check int) "size shrinks" 3 (Tgd.size minimal));
    Alcotest.test_case "joined body atoms are kept" `Quick (fun () ->
        let v = Fixtures.v in
        let me =
          Tgd.make ~label:"me"
            ~body:
              [
                Atom.make "r2" [ v "X"; v "F" ];
                Atom.make "r3" [ v "F"; v "Y"; v "Z" ];
              ]
            ~head:[ Atom.make "t2" [ v "X"; v "Y" ] ]
            ()
        in
        let minimal = Chase.Implication.minimize_tgd me in
        Alcotest.(check int) "two body atoms" 2 (List.length minimal.Tgd.body));
    Alcotest.test_case "already minimal tgds are unchanged" `Quick (fun () ->
        let minimal = Chase.Implication.minimize_tgd Fixtures.theta3 in
        Alcotest.(check bool)
          "same" true
          (Tgd.equal_up_to_renaming minimal Fixtures.theta3));
    Alcotest.test_case "exactly one copy of a duplicated atom survives" `Quick
      (fun () ->
        (* regression: removal by physical equality could not shrink a
           body whose duplicate atoms share one allocation — dropping one
           dropped both, so the guard kept the redundant copy forever;
           removal is positional now *)
        let v = Fixtures.v in
        let a = Atom.make "r2" [ v "X"; v "Y" ] in
        let doubled =
          Tgd.make ~label:"doubled" ~body:[ a; a ]
            ~head:[ Atom.make "t2" [ v "X"; v "Y" ] ]
            ()
        in
        let minimal = Chase.Implication.minimize_tgd doubled in
        Alcotest.(check int) "one body atom" 1 (List.length minimal.Tgd.body);
        Alcotest.(check bool)
          "still equivalent" true
          (Chase.Implication.equivalent minimal doubled));
  ]

let () =
  Alcotest.run "chase"
    [
      ("basic", basic_tests);
      ("edge-cases", edge_case_tests);
      ("properties", property_tests);
      ("oracle", chase_oracle_tests @ satisfies_oracle_tests);
      ("implication", implication_tests);
      ("minimize-tgd", minimize_tgd_tests);
    ]
