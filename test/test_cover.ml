open Relational
open Util

let frac = Alcotest.testable Frac.pp Frac.equal

let analyze_appendix () =
  Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let ml_task = Tuple.of_consts "task" [ "ML"; "Alice"; "111" ]

let sap_org = Tuple.of_consts "org" [ "111"; "SAP" ]

let appendix_tests =
  [
    Alcotest.test_case "theta1: covers 2/3 for the ML task, 0 otherwise" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(0) in
        Alcotest.check frac "ML task" (Frac.make 2 3) (Cover.covers stats ml_task);
        Alcotest.check frac "org not covered" Frac.zero
          (Cover.covers stats sap_org);
        Alcotest.(check int)
          "only one covered target" 1
          (List.length (Cover.covered_targets stats)));
    Alcotest.test_case "theta1: one error tuple (the BigData task)" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(0) in
        Alcotest.(check int) "errors" 1 (Cover.error_count stats);
        match stats.Cover.error_tuples with
        | [ t ] -> Alcotest.(check string) "rel" "task" t.Tuple.rel
        | l -> Alcotest.failf "expected 1 error tuple, got %d" (List.length l));
    Alcotest.test_case
      "theta3: corroborated null lifts coverage to 3/3 and 2/2" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(1) in
        Alcotest.check frac "ML task fully" Frac.one (Cover.covers stats ml_task);
        Alcotest.check frac "SAP org fully" Frac.one (Cover.covers stats sap_org));
    Alcotest.test_case "theta3: two error tuples (BigData task and IBM org)"
      `Quick (fun () ->
        let stats = (analyze_appendix ()).(1) in
        Alcotest.(check int) "errors" 2 (Cover.error_count stats);
        Alcotest.(check int) "produced" 4 stats.Cover.produced);
    Alcotest.test_case "explains takes the max over the mapping" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        Alcotest.check frac "max" Frac.one
          (Cover.explains (Array.to_list stats) ml_task);
        Alcotest.check frac "single theta1" (Frac.make 2 3)
          (Cover.explains [ stats.(0) ] ml_task));
    Alcotest.test_case "uncovered targets are the Social/MSR tuples" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        let uncovered = Cover.uncovered_targets stats Fixtures.instance_j in
        Alcotest.(check int) "two" 2 (Tuple.Set.cardinal uncovered);
        Alcotest.(check bool)
          "social task" true
          (Tuple.Set.mem (Tuple.of_consts "task" [ "Social"; "Carl"; "222" ]) uncovered);
        Alcotest.(check bool)
          "msr org" true
          (Tuple.Set.mem (Tuple.of_consts "org" [ "222"; "MSR" ]) uncovered));
    Alcotest.test_case "extension: theta3 fully explains ML-like projects"
      `Quick (fun () ->
        let i', j' = Fixtures.extended_example 5 in
        let stats = Cover.analyze ~source:i' ~j:j' [ Fixtures.theta1; Fixtures.theta3 ] in
        let proj_task k = Tuple.of_consts "task" [ Printf.sprintf "Proj%d" k; "Alice"; "111" ] in
        for k = 0 to 4 do
          Alcotest.check frac "theta1 2/3" (Frac.make 2 3)
            (Cover.covers stats.(0) (proj_task k));
          Alcotest.check frac "theta3 fully" Frac.one
            (Cover.covers stats.(1) (proj_task k))
        done;
        (* no new errors for either candidate *)
        Alcotest.(check int) "theta1 errors" 1 (Cover.error_count stats.(0));
        Alcotest.(check int) "theta3 errors" 2 (Cover.error_count stats.(1)));
  ]

let matching_tests =
  [
    Alcotest.test_case "matches: constants must agree" `Quick (fun () ->
        let pattern = Tuple.make "r" [ Value.Const "a"; Value.Null 0 ] in
        Alcotest.(check bool)
          "match" true
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "a"; "x" ]));
        Alcotest.(check bool)
          "mismatch" false
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "b"; "x" ])));
    Alcotest.test_case "matches: repeated null must map consistently" `Quick
      (fun () ->
        let pattern = Tuple.make "r" [ Value.Null 0; Value.Null 0 ] in
        Alcotest.(check bool)
          "diagonal ok" true
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "x"; "x" ]));
        Alcotest.(check bool)
          "off-diagonal no" false
          (Cover.matches ~pattern (Tuple.of_consts "r" [ "x"; "y" ])));
    Alcotest.test_case "matches: different relations never match" `Quick
      (fun () ->
        let pattern = Tuple.make "r" [ Value.Null 0 ] in
        Alcotest.(check bool)
          "no" false
          (Cover.matches ~pattern (Tuple.of_consts "q" [ "x" ])));
    Alcotest.test_case "maps_into" `Quick (fun () ->
        let inst = Instance.of_tuples [ Tuple.of_consts "r" [ "a"; "b" ] ] in
        Alcotest.(check bool)
          "yes" true
          (Cover.maps_into (Tuple.make "r" [ Value.Const "a"; Value.Null 9 ]) inst);
        Alcotest.(check bool)
          "no" false
          (Cover.maps_into (Tuple.make "r" [ Value.Const "z"; Value.Null 9 ]) inst));
  ]

(* A tgd whose two head atoms share an existential, to exercise partially
   matched groups: only the first head atom lands in J, so the shared null is
   not corroborated. *)
let partial_group_tests =
  [
    Alcotest.test_case "uncorroborated null counts as uncovered" `Quick
      (fun () ->
        let v = Fixtures.v in
        let theta =
          Logic.Tgd.make ~label:"partial"
            ~body:[ Logic.Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
            ~head:
              [
                Logic.Atom.make "task" [ v "P"; v "E"; v "T" ];
                Logic.Atom.make "org" [ v "T"; Logic.Term.Cst "Nowhere" ];
              ]
            ()
        in
        let stats =
          Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j [ theta ]
        in
        (* org(T, Nowhere) never lands in J, so the ML task is only covered
           2/3 and both org tuples are errors. *)
        Alcotest.check frac "2/3" (Frac.make 2 3) (Cover.covers stats.(0) ml_task);
        Alcotest.(check int) "errors" 3 (Cover.error_count stats.(0)));
    Alcotest.test_case "ground head tuple in J covers fully" `Quick (fun () ->
        let theta =
          Logic.Tgd.make ~label:"const-head"
            ~body:[ Logic.Atom.make "proj" [ Logic.Term.Cst "ML"; Fixtures.v "E"; Fixtures.v "O" ] ]
            ~head:
              [
                Logic.Atom.make "org"
                  [ Logic.Term.Cst "111"; Logic.Term.Cst "SAP" ];
              ]
            ()
        in
        let stats =
          Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j [ theta ]
        in
        Alcotest.check frac "full" Frac.one (Cover.covers stats.(0) sap_org);
        Alcotest.(check int) "no errors" 0 (Cover.error_count stats.(0)));
  ]

let property_tests =
  let open QCheck2 in
  (* Random source instances chased with theta1/theta3 against random ground
     target instances over task/org. *)
  let target_gen =
    let mk rel vs = Relational.Tuple.of_consts rel vs in
    Gen.(
      let* tasks =
        list_size (int_range 0 6)
          (map
             (fun (a, b, c) ->
               mk "task"
                 [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "o%d" c ])
             (triple (int_range 0 3) (int_range 0 3) (int_range 0 3)))
      in
      let* orgs =
        list_size (int_range 0 6)
          (map
             (fun (a, b) ->
               mk "org" [ Printf.sprintf "o%d" a; Printf.sprintf "n%d" b ])
             (pair (int_range 0 3) (int_range 0 3)))
      in
      return (Instance.of_tuples (tasks @ orgs)))
  in
  let source_gen =
    let mk rel vs = Relational.Tuple.of_consts rel vs in
    Gen.(
      list_size (int_range 0 6)
        (map
           (fun (a, b, c) ->
             mk "proj"
               [ Printf.sprintf "p%d" a; Printf.sprintf "e%d" b; Printf.sprintf "n%d" c ])
           (triple (int_range 0 3) (int_range 0 3) (int_range 0 3))))
    |> Gen.map Instance.of_tuples
  in
  [
    Test.make ~name:"degrees lie in (0,1]" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all
          (fun s ->
            Relational.Tuple.Map.for_all
              (fun _ d -> Frac.(Stdlib.not (is_zero d)) && Frac.(d <= one))
              s.Cover.covers)
          stats);
    Test.make ~name:"errors never exceed produced tuples" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all (fun s -> Cover.error_count s <= s.Cover.produced) stats);
    Test.make ~name:"covered targets are tuples of J" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all
          (fun s -> List.for_all (fun t -> Instance.mem t j) (Cover.covered_targets s))
          stats);
    Test.make ~name:"semantics are pointwise ordered" ~count:60
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let degrees semantics =
          Cover.analyze ~semantics ~source:src ~j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        let strict = degrees Cover.Strict in
        let corr = degrees Cover.Corroborated in
        let generous = degrees Cover.Generous in
        Instance.fold
          (fun t acc ->
            acc
            && Array.for_all
                 (fun k ->
                   Frac.(Cover.covers strict.(k) t <= Cover.covers corr.(k) t)
                   && Frac.(Cover.covers corr.(k) t <= Cover.covers generous.(k) t))
                 [| 0; 1 |])
          j true);
    Test.make ~name:"error counts are semantics-independent" ~count:60
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let errors semantics =
          Array.map Cover.error_count
            (Cover.analyze ~semantics ~source:src ~j
               [ Fixtures.theta1; Fixtures.theta3 ])
        in
        errors Cover.Strict = errors Cover.Corroborated
        && errors Cover.Corroborated = errors Cover.Generous);
    Test.make ~name:"bigger J never decreases coverage" ~count:100
      (Gen.triple source_gen target_gen target_gen) (fun (src, j1, j2) ->
        let j = Instance.union j1 j2 in
        let stats1 = Cover.analyze ~source:src ~j:j1 [ Fixtures.theta3 ] in
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta3 ] in
        Instance.fold
          (fun t acc ->
            acc
            && Frac.(Cover.covers stats1.(0) t <= Cover.covers stats.(0) t))
          j1 true);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* Regression pin for the interned homomorphism search: the E1 problem's
   digest covers every stat field (covers map, error tuples, produced,
   size, cost) of both candidates, so any drift in [stats_of_triggers] —
   like the interned-J hoist reordering a fold — fails here byte-for-byte. *)
let regression_tests =
  [
    Alcotest.test_case "E1 stats digest is stable" `Quick (fun () ->
        let p =
          Core.Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Alcotest.(check string)
          "digest" "b5fc0caa89cc8925a22214fa4beaaf33" (Core.Problem.digest p));
    Alcotest.test_case "cored E1 stats equal uncored ones (ground chase)"
      `Quick (fun () ->
        (* the E1 chase target is null-free on theta1 and its core is the
           identity, so coring must be a no-op on the stats *)
        let plain = analyze_appendix () in
        let cored =
          Cover.analyze ~core:true ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Array.iteri
          (fun k s ->
            Alcotest.(check int)
              (Printf.sprintf "produced %d" k)
              s.Cover.produced cored.(k).Cover.produced;
            Alcotest.(check int)
              (Printf.sprintf "errors %d" k)
              (Cover.error_count s)
              (Cover.error_count cored.(k)))
          plain);
  ]

(* --- the linear-scan oracle ------------------------------------------ *)

(* The coverage fold as it was before J was indexed: every chase tuple is
   matched against every J-tuple of its relation to list its options, a
   second scan decides its error bit, and the configurations of a trigger
   group merge options found under the empty assignment. Kept here, and
   only here, as the differential oracle for the indexed [Cover]. *)
module Scan = struct
  let match_with ~assignment ~(pattern : Tuple.t) (t : Tuple.t) =
    if not (String.equal pattern.Tuple.rel t.Tuple.rel) then None
    else if Array.length pattern.values <> Array.length t.values then None
    else
      let n = Array.length pattern.values in
      let rec loop i asg =
        if i >= n then Some asg
        else
          match pattern.values.(i) with
          | Value.Const _ as c ->
            if Value.equal c t.values.(i) then loop (i + 1) asg else None
          | Value.Null _ as nul -> (
            match Value.Map.find_opt nul asg with
            | Some bound ->
              if Value.equal bound t.values.(i) then loop (i + 1) asg else None
            | None -> loop (i + 1) (Value.Map.add nul t.values.(i) asg))
      in
      loop 0 assignment

  let options_of ~j (pattern : Tuple.t) =
    List.filter_map
      (fun t ->
        Option.map
          (fun asg -> (t, asg))
          (match_with ~assignment:Value.Map.empty ~pattern t))
      (Tuple.Set.elements (Instance.tuples_of j pattern.Tuple.rel))

  let maps_into ~j pattern =
    Tuple.Set.exists
      (fun t -> Option.is_some (match_with ~assignment:Value.Map.empty ~pattern t))
      (Instance.tuples_of j pattern.Tuple.rel)

  let merge_assignments a b =
    Value.Map.fold
      (fun k v acc ->
        match acc with
        | None -> None
        | Some m -> (
          match Value.Map.find_opt k m with
          | None -> Some (Value.Map.add k v m)
          | Some v' -> if Value.equal v v' then acc else None))
      b (Some a)

  let degree_of ~semantics ~group ~matched i =
    let pattern = group.(i) in
    let corroborated nul =
      List.exists
        (fun k -> k <> i && Array.exists (Value.equal nul) group.(k).Tuple.values)
        matched
    in
    let covered =
      Array.fold_left
        (fun n v ->
          match (v, semantics) with
          | Value.Const _, _ | Value.Null _, Cover.Generous -> n + 1
          | Value.Null _, Cover.Strict -> n
          | Value.Null _, Cover.Corroborated ->
            if corroborated v then n + 1 else n)
        0 pattern.Tuple.values
    in
    Frac.make covered (Array.length pattern.Tuple.values)

  let fold_group_covers ~semantics ~j group acc =
    let n = Array.length group in
    let options = Array.map (options_of ~j) group in
    let choices = Array.make n None in
    let acc = ref acc in
    let rec explore i assignment =
      if i >= n then begin
        let matched =
          List.filter (fun k -> choices.(k) <> None) (List.init n Fun.id)
        in
        List.iter
          (fun k ->
            let d = degree_of ~semantics ~group ~matched k in
            if not (Frac.is_zero d) then
              acc :=
                Tuple.Map.update (Option.get choices.(k))
                  (function
                    | None -> Some d
                    | Some d' -> Some (Frac.max d d'))
                  !acc)
          matched
      end
      else begin
        choices.(i) <- None;
        explore (i + 1) assignment;
        List.iter
          (fun (t, asg) ->
            match merge_assignments assignment asg with
            | None -> ()
            | Some merged ->
              choices.(i) <- Some t;
              explore (i + 1) merged;
              choices.(i) <- None)
          options.(i)
      end
    in
    explore 0 Value.Map.empty;
    !acc

  let core_triggers (result : Chase.result) =
    let c = Chase.Core_solution.core result.Chase.solution in
    List.filter_map
      (fun (tr : Chase.Trigger.t) ->
        match List.filter (fun t -> Instance.mem t c) tr.Chase.Trigger.tuples with
        | [] -> None
        | tuples -> Some { tr with Chase.Trigger.tuples })
      result.Chase.triggers

  let stats ~semantics ~core ~j ~index tgd (result : Chase.result) =
    let triggers = if core then core_triggers result else result.Chase.triggers in
    let covers, errors, produced =
      List.fold_left
        (fun (covers, errors, produced) (tr : Chase.Trigger.t) ->
          let group = Array.of_list tr.Chase.Trigger.tuples in
          let covers = fold_group_covers ~semantics ~j group covers in
          let errors =
            Array.fold_left
              (fun errs pattern ->
                if maps_into ~j pattern then errs else pattern :: errs)
              errors group
          in
          (covers, errors, produced + Array.length group))
        (Tuple.Map.empty, [], 0) triggers
    in
    {
      Cover.index;
      tgd;
      covers;
      error_tuples = List.rev errors;
      produced;
      size = Logic.Tgd.size tgd;
    }

  let analyze ~semantics ~core ~source ~j tgds =
    Array.of_list
      (List.mapi
         (fun index tgd ->
           stats ~semantics ~core ~j ~index tgd (Chase.run source [ tgd ]))
         tgds)
end

let same_stats (a : Cover.tgd_stats) (b : Cover.tgd_stats) =
  a.Cover.index = b.Cover.index
  && Tuple.Map.equal Frac.equal a.Cover.covers b.Cover.covers
  && List.equal Tuple.equal a.Cover.error_tuples b.Cover.error_tuples
  && a.Cover.produced = b.Cover.produced
  && a.Cover.size = b.Cover.size

let same_analysis a b =
  Array.length a = Array.length b && Array.for_all2 same_stats a b

(* Random data examples for the differential: a source [proj] of arity 3;
   a target [J] whose [task] relation mixes arities 2 and 3, with labelled
   nulls among its values and a value domain narrower than the source's,
   so some source constants never occur in [J]; and candidates whose heads
   mix copied variables, existentials shared between atoms, and constants
   that may or may not occur in [J]. *)
let differential_gen =
  let open QCheck2.Gen in
  let const k = Value.Const (Printf.sprintf "c%d" k) in
  let j_value =
    frequency [ (4, map const (int_range 0 3)); (1, map (fun k -> Value.Null k) (int_range 0 3)) ]
  in
  let j_tuple =
    let* rel, arity =
      oneofl [ ("task", 3); ("task", 2); ("org", 2) ]
    in
    map (fun vs -> Tuple.make rel vs) (list_repeat arity j_value)
  in
  let source_tuple =
    map (fun vs -> Tuple.make "proj" (List.map const vs)) (list_repeat 3 (int_range 0 5))
  in
  let term =
    frequency
      [
        (4, map (fun x -> Logic.Term.Var x) (oneofl [ "P"; "E"; "O" ]));
        (3, map (fun x -> Logic.Term.Var x) (oneofl [ "T"; "U" ]));
        (1, map (fun k -> Logic.Term.Cst (Printf.sprintf "c%d" k)) (int_range 0 5));
      ]
  in
  let atom =
    let* rel, arity = oneofl [ ("task", 3); ("task", 2); ("org", 2) ] in
    map (fun ts -> Logic.Atom.make rel ts) (list_repeat arity term)
  in
  let tgd k =
    map
      (fun head ->
        Logic.Tgd.make ~label:(Printf.sprintf "d%d" k)
          ~body:[ Logic.Atom.make "proj" Logic.Term.[ Var "P"; Var "E"; Var "O" ] ]
          ~head ())
      (list_size (int_range 1 3) atom)
  in
  let* source = list_size (int_range 0 8) source_tuple in
  let* j = list_size (int_range 0 14) j_tuple in
  let* tgds = list_size (int_range 1 4) (return ()) in
  let* tgds = flatten_l (List.mapi (fun k () -> tgd k) tgds) in
  let* semantics = oneofl Cover.[ Corroborated; Strict; Generous ] in
  let* core = bool in
  return (Instance.of_tuples source, Instance.of_tuples j, tgds, semantics, core)

let print_differential (source, j, tgds, _, core) =
  Format.asprintf "I = %a@.J = %a@.core %b@.%a" Instance.pp source Instance.pp j
    core
    (Format.pp_print_list Logic.Tgd.pp)
    tgds

let differential_tests =
  [
    QCheck2.Test.make ~name:"indexed analyze equals the linear scan" ~count:300
      ~print:print_differential differential_gen
      (fun (source, j, tgds, semantics, core) ->
        same_analysis
          (Cover.analyze ~semantics ~core ~source ~j tgds)
          (Scan.analyze ~semantics ~core ~source ~j tgds))
    |> QCheck_alcotest.to_alcotest;
  ]

(* One analysis three ways: [analyze]'s shared session, a fresh index per
   candidate through [stats_of_result], and [Problem.make] through the
   cache, cold and then warm. *)
let example () =
  let s =
    Ibench.Generator.generate
      {
        Ibench.Config.default with
        Ibench.Config.rows_per_relation = 12;
        pi_errors = 20;
        pi_unexplained = 20;
        seed = 7;
      }
  in
  let tgds =
    Candgen.Generate.generate ~source:s.Ibench.Scenario.source
      ~target:s.Ibench.Scenario.target ~src_fkeys:s.Ibench.Scenario.src_fkeys
      ~tgt_fkeys:s.Ibench.Scenario.tgt_fkeys
      ~corrs:s.Ibench.Scenario.correspondences
  in
  (s.Ibench.Scenario.instance_i, s.Ibench.Scenario.instance_j, tgds)

let session_tests =
  [
    Alcotest.test_case "analyze, stats_of_result and cached make agree" `Quick
      (fun () ->
        let source, j, tgds = example () in
        let analyzed = Cover.analyze ~source ~j tgds in
        let per_call =
          Array.of_list
            (List.mapi
               (fun index tgd ->
                 Cover.stats_of_result ~j ~index tgd (Chase.run source [ tgd ]))
               tgds)
        in
        let cache = Cache.create () in
        let cold = Core.Problem.make ~cache ~source ~j tgds in
        let warm = Core.Problem.make ~cache ~source ~j tgds in
        Alcotest.(check bool) "non-trivial" true (Array.length analyzed > 3);
        Alcotest.(check bool) "per call" true (same_analysis analyzed per_call);
        Alcotest.(check bool)
          "cached, cold" true
          (same_analysis analyzed cold.Core.Problem.stats);
        Alcotest.(check bool)
          "cached, warm" true
          (same_analysis analyzed warm.Core.Problem.stats));
    Alcotest.test_case "a warm cached make chases nothing and indexes nothing"
      `Quick (fun () ->
        let source, j, tgds = example () in
        let cache = Cache.create () in
        let names = [ "chase.runs"; "cover.relations_indexed" ] in
        let _, cold =
          Fixtures.counting names (fun () -> Core.Problem.make ~cache ~source ~j tgds)
        in
        let _, warm =
          Fixtures.counting names (fun () -> Core.Problem.make ~cache ~source ~j tgds)
        in
        Alcotest.(check (list int))
          "cold build chases every candidate" [ List.length tgds ]
          [ List.hd cold ];
        Alcotest.(check bool) "cold build indexes J" true (List.nth cold 1 > 0);
        Alcotest.(check (list int)) "warm build" [ 0; 0 ] warm);
  ]

let () =
  Alcotest.run "cover"
    [
      ("appendix", appendix_tests);
      ("matching", matching_tests);
      ("partial-groups", partial_group_tests);
      ("properties", property_tests);
      ("regression", regression_tests);
      ("differential", differential_tests);
      ("session", session_tests);
    ]
