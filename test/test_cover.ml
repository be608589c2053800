open Relational
open Util

let frac = Alcotest.testable Frac.pp Frac.equal

let analyze_appendix () =
  Cover.analyze ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let ml_task = Tuple.of_consts "task" [ "ML"; "Alice"; "111" ]

let sap_org = Tuple.of_consts "org" [ "111"; "SAP" ]

(* The degrees of the appendix's J. *)
let covers = Cover.covers ~j:Fixtures.instance_j

(* [explains(M, t)] and the tuples of [j] no candidate covers, read off
   [Cover.degrees]. *)
let explains ~j stats t =
  List.fold_left (fun acc s -> Frac.max acc (Cover.covers ~j s t)) Frac.zero stats

let uncovered_targets ~j stats =
  let covered =
    Array.fold_left
      (fun acc s ->
        List.fold_left (fun acc (t, _) -> Tuple.Set.add t acc) acc (Cover.degrees ~j s))
      Tuple.Set.empty stats
  in
  Instance.fold
    (fun t acc -> if Tuple.Set.mem t covered then acc else Tuple.Set.add t acc)
    j Tuple.Set.empty

let appendix_tests =
  [
    Alcotest.test_case "theta1: covers 2/3 for the ML task, 0 otherwise" `Quick
      (fun () ->
        let stats = (analyze_appendix ()).(0) in
        Alcotest.check frac "ML task" (Frac.make 2 3) (covers stats ml_task);
        Alcotest.check frac "org not covered" Frac.zero
          (covers stats sap_org);
        Alcotest.(check int)
          "only one covered target" 1
          (List.length (Cover.degrees ~j:Fixtures.instance_j stats)));
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
        Alcotest.check frac "ML task fully" Frac.one (covers stats ml_task);
        Alcotest.check frac "SAP org fully" Frac.one (covers stats sap_org));
    Alcotest.test_case "theta3: two error tuples (BigData task and IBM org)"
      `Quick (fun () ->
        let stats = (analyze_appendix ()).(1) in
        Alcotest.(check int) "errors" 2 (Cover.error_count stats);
        Alcotest.(check int) "produced" 4 stats.Cover.produced);
    Alcotest.test_case "explains takes the max over the mapping" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        Alcotest.check frac "max" Frac.one
          (explains ~j:Fixtures.instance_j (Array.to_list stats) ml_task);
        Alcotest.check frac "single theta1" (Frac.make 2 3)
          (explains ~j:Fixtures.instance_j [ stats.(0) ] ml_task));
    Alcotest.test_case "uncovered targets are the Social/MSR tuples" `Quick
      (fun () ->
        let stats = analyze_appendix () in
        let uncovered = uncovered_targets ~j:Fixtures.instance_j stats in
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
            (Cover.covers ~j:j' stats.(0) (proj_task k));
          Alcotest.check frac "theta3 fully" Frac.one
            (Cover.covers ~j:j' stats.(1) (proj_task k))
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
        Alcotest.check frac "2/3" (Frac.make 2 3) (covers stats.(0) ml_task);
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
        Alcotest.check frac "full" Frac.one (covers stats.(0) sap_org);
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
            Array.for_all
              (fun (_, d) -> Frac.(Stdlib.not (is_zero d)) && Frac.(d <= one))
              s.Cover.rows)
          stats);
    Test.make ~name:"errors never exceed produced tuples" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all (fun s -> Cover.error_count s <= s.Cover.produced) stats);
    Test.make ~name:"covered targets are tuples of J" ~count:100
      (Gen.pair source_gen target_gen) (fun (src, j) ->
        let stats = Cover.analyze ~source:src ~j [ Fixtures.theta1; Fixtures.theta3 ] in
        Array.for_all
          (fun s ->
            List.for_all (fun (t, _) -> Instance.mem t j) (Cover.degrees ~j s))
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
                   Frac.(Cover.covers ~j strict.(k) t <= Cover.covers ~j corr.(k) t)
                   && Frac.(
                        Cover.covers ~j corr.(k) t <= Cover.covers ~j generous.(k) t))
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
            && Frac.(Cover.covers ~j:j1 stats1.(0) t <= Cover.covers ~j stats.(0) t))
          j1 true);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* Regression pin for the interned homomorphism search: the E1 problem's
   digest covers every stat field (coverage rows, error tuples, produced,
   size, cost) of both candidates, so any drift in the trigger fold —
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
    (* each covered tuple's position in [Instance.tuples j], found by a
       scan *)
    let row t =
      let rec find k = function
        | [] -> Alcotest.fail "a covered tuple is not in J"
        | t' :: rest -> if Tuple.equal t t' then k else find (k + 1) rest
      in
      find 0 (Instance.tuples j)
    in
    {
      Cover.index;
      tgd;
      covers;
      rows =
        Array.of_list
          (List.map (fun (t, d) -> (row t, d)) (Tuple.Map.bindings covers));
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

(* Two folds of the same candidates against [j], compared degree by
   degree as tuples of [j] and as row numbers. *)
let same_stats ~j (a : Cover.tgd_stats) (b : Cover.tgd_stats) =
  a.Cover.index = b.Cover.index
  && List.equal
       (fun (t, d) (t', d') -> Tuple.equal t t' && Frac.equal d d')
       (Cover.degrees ~j a) (Cover.degrees ~j b)
  && Array.length a.Cover.rows = Array.length b.Cover.rows
  && Array.for_all2
       (fun (r, d) (r', d') -> r = r' && Frac.equal d d')
       a.Cover.rows b.Cover.rows
  && List.equal Tuple.equal a.Cover.error_tuples b.Cover.error_tuples
  && a.Cover.produced = b.Cover.produced
  && a.Cover.size = b.Cover.size

let same_analysis ~j a b =
  Array.length a = Array.length b && Array.for_all2 (same_stats ~j) a b

(* Random data examples for the differential: a source [proj] of arity 3
   whose values are constants or labelled nulls, so that frontier values
   reach the chase tuples as nulls a group shares like invented ones; a
   target [J] whose [task] relation mixes arities 2 and 3, with labelled
   nulls among its values and a value domain narrower than the source's,
   so some source constants never occur in [J], and which in half the
   draws holds 20 or more rows, so that the all-null tuples of a group
   have many rows to choose from; and candidates with up to four head
   atoms, which mix copied variables, existentials shared between atoms,
   constants that may or may not occur in [J], and atoms made of
   existentials only. Source nulls are labelled from 100 up, apart from
   the labels the chase invents; half the draws with a small [J] add three
   source rows whose frontier nulls change the trigger-group layout between
   consecutive groups (and, cored, make null-linked components the core
   search must order well). *)
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
  let source_value =
    frequency
      [
        (4, map const (int_range 0 5));
        (1, map (fun k -> Value.Null (100 + k)) (int_range 0 2));
      ]
  in
  let source_tuple = map (Tuple.make "proj") (list_repeat 3 source_value) in
  let term =
    frequency
      [
        (4, map (fun x -> Logic.Term.Var x) (oneofl [ "P"; "E"; "O" ]));
        (3, map (fun x -> Logic.Term.Var x) (oneofl [ "T"; "U" ]));
        (1, map (fun k -> Logic.Term.Cst (Printf.sprintf "c%d" k)) (int_range 0 5));
      ]
  in
  let existential =
    map (fun x -> Logic.Term.Var x) (oneofl [ "T"; "U"; "V" ])
  in
  let atom =
    let* rel, arity = oneofl [ ("task", 3); ("task", 2); ("org", 2) ] in
    let* terms = frequency [ (4, return term); (1, return existential) ] in
    map (fun ts -> Logic.Atom.make rel ts) (list_repeat arity terms)
  in
  let tgd k =
    map
      (fun head ->
        Logic.Tgd.make ~label:(Printf.sprintf "d%d" k)
          ~body:[ Logic.Atom.make "proj" Logic.Term.[ Var "P"; Var "E"; Var "O" ] ]
          ~head ())
      (list_size (int_range 1 4) atom)
  in
  (* three source rows chased one after another whose first and last
     positions hold one null, two nulls, then one null again: consecutive
     trigger groups of one candidate whose frontier nulls are numbered
     differently *)
  let twins =
    let* n = int_range 100 101 and* e = source_value in
    let row p o = Tuple.make "proj" [ Value.Null p; e; Value.Null o ] in
    oneofl [ []; [ row n n; row n (n + 1); row (n + 1) (n + 1) ] ]
  in
  let* source = list_size (int_range 0 8) source_tuple in
  let* j =
    list_size (frequency [ (1, int_range 0 14); (1, int_range 20 48) ]) j_tuple
  in
  let* tgds = list_size (int_range 1 4) (return ()) in
  let* tgds = flatten_l (List.mapi (fun k () -> tgd k) tgds) in
  let* semantics = oneofl Cover.[ Corroborated; Strict; Generous ] in
  let* core = bool in
  (* the linear scan's enumeration grows as |J| to the group size over
     all-null tuples, so the twins go with the smaller J only *)
  let* twins = if List.length j < 20 then twins else return [] in
  let source = source @ twins in
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
        same_analysis ~j
          (Cover.analyze ~semantics ~core ~source ~j tgds)
          (Scan.analyze ~semantics ~core ~source ~j tgds))
    |> QCheck_alcotest.to_alcotest;
    Alcotest.test_case "differential draws reach the shapes they are for"
      `Quick (fun () ->
        (* guards the generator against drifting away from the cases the
           fold's shortcuts must get right *)
        let rand = Random.State.make [| 22 |] in
        let draws =
          List.init 100 (fun _ -> QCheck2.Gen.generate1 ~rand differential_gen)
        in
        let exists p = List.exists p draws in
        let heads (_, _, tgds, _, _) =
          List.map (fun t -> t.Logic.Tgd.head) tgds
        in
        let existential_only atom =
          Array.for_all
            (function
              | Logic.Term.Var x -> List.mem x [ "T"; "U"; "V" ] | _ -> false)
            atom.Logic.Atom.args
        in
        let check name p = Alcotest.(check bool) name true (exists p) in
        check "a J relation of 20+ rows" (fun (_, j, _, _, _) ->
            List.exists
              (fun rel -> Tuple.Set.cardinal (Instance.tuples_of j rel) >= 20)
              (Instance.relations j));
        check "a head of 4 atoms" (fun d ->
            List.exists (fun h -> List.length h = 4) (heads d));
        check "an existential-only atom" (fun d ->
            List.exists (List.exists existential_only) (heads d));
        check "a chase tuple with a frontier null maps into J"
          (fun (source, j, tgds, _, _) ->
            List.exists
              (fun (tr : Chase.Trigger.t) ->
                List.exists
                  (fun t ->
                    Array.exists
                      (function Value.Null k -> k >= 100 | _ -> false)
                      t.Tuple.values
                    && Cover.maps_into t j)
                  tr.Chase.Trigger.tuples)
              (Chase.run source tgds).Chase.triggers);
        (* consecutive trigger groups of one candidate whose layouts
           differ, so the fold lays a group out anew mid-candidate *)
        let triggers source (tgd : Logic.Tgd.t) =
          List.map
            (fun tr ->
              let s = Chase.Trigger.subst tr in
              fun x ->
                if Logic.String_set.mem x (Logic.Tgd.head_vars tgd) then
                  Logic.Subst.find_opt x s
                else None)
            (Chase.fire source [ tgd ])
        in
        let source_null = function
          | Some (Value.Null k) -> k >= 100
          | _ -> false
        in
        let rec consecutive p = function
          | a :: (b :: _ as rest) -> p a b || consecutive p rest
          | [ _ ] | [] -> false
        in
        let frontier = [ "P"; "E"; "O" ] in
        check "a frontier variable bound to a constant, then to a source null"
          (fun (source, _, tgds, _, _) ->
            List.exists
              (fun tgd ->
                consecutive
                  (fun a b ->
                    List.exists
                      (fun x ->
                        (match a x with Some (Value.Const _) -> true | _ -> false)
                        && source_null (b x))
                      frontier)
                  (triggers source tgd))
              tgds);
        let twin a b =
          List.exists
            (fun x ->
              List.exists
                (fun y ->
                  x < y && source_null (a x) && a x = a y && source_null (b x)
                  && source_null (b y) && b x <> b y)
                frontier)
            frontier
        in
        check
          "two frontier variables bound to one source null, then to two, \
           then to one"
          (fun (source, _, tgds, _, _) ->
            List.exists
              (fun tgd ->
                let groups = triggers source tgd in
                consecutive twin groups
                && consecutive (fun a b -> twin b a) groups)
              tgds));
  ]

(* The fold's enumeration, pinned. One trigger of
   [m(X,Y), t1(X,a,b), t2(Y,c,d,e)] against 30 [m] rows [m(xk,yk)], two
   [t1] rows (through [x0] and [x1]) and one [t2] row (through [y0]). The
   fold decides [t1] and [t2] before the all-null [m] tuple, whose probe
   then goes by the bound null: 3 choices for [t1] times 2 for [t2], each
   followed by [m]'s unmatched case and its one consistent row (none when
   [t1] took [x1] and [t2] took [y0], and [m] is isolated when neither
   matched) make 10 configurations over 11 probed rows. A fold that
   branches on every [m] row first makes 40 over 33. *)
let pinned_group () =
  let source =
    Instance.of_tuples [ Tuple.of_consts "src" [ "a"; "b"; "c"; "d"; "e" ] ]
  in
  let var x = Logic.Term.Var x in
  let tgd =
    Logic.Tgd.make ~label:"g"
      ~body:[ Logic.Atom.make "src" (List.map var [ "A"; "B"; "C"; "D"; "E" ]) ]
      ~head:
        [
          Logic.Atom.make "m" [ var "X"; var "Y" ];
          Logic.Atom.make "t1" [ var "X"; var "A"; var "B" ];
          Logic.Atom.make "t2" [ var "Y"; var "C"; var "D"; var "E" ];
        ]
      ()
  in
  let x k = Printf.sprintf "x%d" k and y k = Printf.sprintf "y%d" k in
  let j =
    Instance.of_tuples
      (Tuple.of_consts "t1" [ x 0; "a"; "b" ]
      :: Tuple.of_consts "t1" [ x 1; "a"; "b" ]
      :: Tuple.of_consts "t2" [ y 0; "c"; "d"; "e" ]
      :: List.init 30 (fun k -> Tuple.of_consts "m" [ x k; y k ]))
  in
  (source, j, tgd)

let fold_tests =
  [
    Alcotest.test_case "a group's configurations and probed rows are pinned"
      `Quick (fun () ->
        let source, j, tgd = pinned_group () in
        let stats, counts =
          Fixtures.counting
            [ "cover.configurations"; "cover.rows_probed" ]
            (fun () -> (Cover.analyze ~source ~j [ tgd ]).(0))
        in
        Alcotest.(check (list int))
          "configurations, rows probed" [ 10; 11 ] counts;
        let degree rel vs = Cover.covers ~j stats (Tuple.of_consts rel vs) in
        let t1 x = degree "t1" [ x; "a"; "b" ] in
        Alcotest.check frac "t1 through x0" Frac.one (t1 "x0");
        Alcotest.check frac "t1 through x1" Frac.one (t1 "x1");
        Alcotest.check frac "t2" Frac.one (degree "t2" [ "y0"; "c"; "d"; "e" ]);
        let m x y = degree "m" [ x; y ] in
        Alcotest.check frac "m joined to both" Frac.one (m "x0" "y0");
        Alcotest.check frac "m joined to t1" (Frac.make 1 2) (m "x1" "y1");
        Alcotest.(check int)
          "no other m row covered" 5
          (List.length (Cover.degrees ~j stats));
        Alcotest.(check int) "no errors" 0 (Cover.error_count stats));
    Alcotest.test_case "one layout serves a candidate's 30 groups" `Quick
      (fun () ->
        (* the pinned group's candidate over 30 source rows that differ
           only in a column the head drops: 30 trigger groups of one
           layout, each enumerated as the single group above *)
        let _, j, tgd = pinned_group () in
        let var x = Logic.Term.Var x in
        let tgd =
          Logic.Tgd.make ~label:"g"
            ~body:
              [
                Logic.Atom.make "src"
                  (List.map var [ "A"; "B"; "C"; "D"; "E"; "K" ]);
              ]
            ~head:tgd.Logic.Tgd.head ()
        in
        let source =
          Instance.of_tuples
            (List.init 30 (fun k ->
                 Tuple.of_consts "src"
                   [ "a"; "b"; "c"; "d"; "e"; Printf.sprintf "k%d" k ]))
        in
        let stats, counts =
          Fixtures.counting
            [
              "chase.triggers";
              "cover.layouts";
              "cover.configurations";
              "cover.rows_probed";
            ]
            (fun () -> (Cover.analyze ~source ~j [ tgd ]).(0))
        in
        Alcotest.(check (list int))
          "groups, layouts, configurations, rows probed" [ 30; 1; 300; 330 ]
          counts;
        Alcotest.(check int) "5 covered rows" 5
          (List.length (Cover.degrees ~j stats));
        Alcotest.(check int) "no errors" 0 (Cover.error_count stats));
  ]

(* One candidate whose answers go null-free, then source-null, then
   null-free: [src(X,Y,Z) -> t(X,Y,N), u(N,Z)] over three source rows, the
   second [src(b, N0, N1)]. The chase invents [N0], [N1], [N2] for the
   three answers, so the second answer's head is [t(b, N0, N1)],
   [u(N1, N1)]: its source nulls reuse the labels the chase invents, one of
   them its own. The fold must lay that answer out from its instantiated
   tuples, not from the head template, in which [Y] and [Z] are constant
   positions: the template would match neither [t(b, q, r)] nor
   [u(r, r)], and a layout that kept [N] and [Z] apart would also match
   [u(r, s)]. *)
let fallback_example () =
  let var x = Logic.Term.Var x in
  let tgd =
    Logic.Tgd.make ~label:"fallback"
      ~body:[ Logic.Atom.make "src" [ var "X"; var "Y"; var "Z" ] ]
      ~head:
        [
          Logic.Atom.make "t" [ var "X"; var "Y"; var "N" ];
          Logic.Atom.make "u" [ var "N"; var "Z" ];
        ]
      ()
  in
  let c x = Value.Const x in
  let source =
    Instance.of_tuples
      [
        Tuple.make "src" [ c "a"; c "x"; c "p" ];
        Tuple.make "src" [ c "b"; Value.Null 0; Value.Null 1 ];
        Tuple.make "src" [ c "c"; c "y"; c "z" ];
      ]
  in
  let j =
    Instance.of_tuples
      [
        Tuple.of_consts "t" [ "a"; "x"; "k" ];
        Tuple.of_consts "u" [ "k"; "p" ];
        Tuple.of_consts "t" [ "b"; "q"; "r" ];
        Tuple.of_consts "u" [ "r"; "r" ];
        Tuple.of_consts "u" [ "r"; "s" ];
        Tuple.of_consts "t" [ "c"; "y"; "m" ];
      ]
  in
  (source, j, tgd)

let fallback_tests =
  [
    Alcotest.test_case "a source-null answer is folded from its instantiated \
                        tuples" `Quick (fun () ->
        let source, j, tgd = fallback_example () in
        let source_null = function
          | Some (Value.Null _) -> true
          | _ -> false
        in
        Alcotest.(check (list bool))
          "null-free, source-null, null-free answers" [ false; true; false ]
          (List.map
             (fun tr ->
               source_null (Logic.Subst.find_opt "Y" (Chase.Trigger.subst tr)))
             (Chase.fire source [ tgd ]));
        let counters =
          [
            "chase.runs";
            "chase.triggers";
            "chase.tuples_produced";
            "cover.configurations";
            "cover.rows_probed";
          ]
        in
        List.iter
          (fun semantics ->
            let (analyzed, layouts), counts =
              Fixtures.counting counters (fun () ->
                  Fixtures.counting [ "cover.layouts" ] (fun () ->
                      Cover.analyze ~semantics ~source ~j [ tgd ]))
            in
            let expected, expected_counts =
              Fixtures.counting counters (fun () ->
                  [| Cover.stats_of_result ~semantics ~j ~index:0 tgd
                       (Chase.run source [ tgd ]) |])
            in
            Alcotest.(check bool)
              "equals stats_of_result" true (same_analysis ~j analyzed expected);
            Alcotest.(check (list int)) "counters" expected_counts counts;
            (* the template's layout, and the source-null answer's *)
            Alcotest.(check (list int)) "cover.layouts" [ 2 ] layouts)
          Cover.[ Corroborated; Strict; Generous ];
        let s = (Cover.analyze ~source ~j [ tgd ]).(0) in
        let degree rel vs = Cover.covers ~j s (Tuple.of_consts rel vs) in
        (* [N1] is bound to [r] by both tuples of the second group *)
        Alcotest.check frac "t(b, q, r)" (Frac.make 2 3) (degree "t" [ "b"; "q"; "r" ]);
        Alcotest.check frac "u(r, r)" Frac.one (degree "u" [ "r"; "r" ]);
        Alcotest.check frac "u(r, s)" Frac.zero (degree "u" [ "r"; "s" ]);
        Alcotest.(check (list string))
          "error tuples carry the chase's labels" [ "u(_N2, z)" ]
          (List.map (Format.asprintf "%a" Tuple.pp) s.Cover.error_tuples));
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

(* Data examples whose source relation [proj] mixes arities 3 and 2, and
   candidates whose bodies read either arity (or both, joined): the shared
   source index of [Cover.analyze] must give what a per-candidate
   [Chase.run] gives. *)
let mixed_arity_gen =
  let open QCheck2.Gen in
  let const k = Value.Const (Printf.sprintf "c%d" k) in
  let proj_tuple =
    let* arity = oneofl [ 2; 3 ] in
    map (fun vs -> Tuple.make "proj" (List.map const vs)) (list_repeat arity (int_range 0 3))
  in
  let j_tuple =
    let* arity = oneofl [ 2; 3 ] in
    map (fun vs -> Tuple.make "task" (List.map const vs)) (list_repeat arity (int_range 0 3))
  in
  let var x = Logic.Term.Var x in
  let body_atom =
    oneofl
      [
        Logic.Atom.make "proj" [ var "P"; var "E"; var "O" ];
        Logic.Atom.make "proj" [ var "P"; var "E" ];
        Logic.Atom.make "proj" [ var "E"; var "O" ];
      ]
  in
  let head_atom =
    let* arity = oneofl [ 2; 3 ] in
    map
      (fun ts -> Logic.Atom.make "task" ts)
      (list_repeat arity (map var (oneofl [ "P"; "E"; "O"; "T" ])))
  in
  let tgd k =
    let* body = list_size (int_range 1 2) body_atom in
    let* head = list_size (int_range 1 2) head_atom in
    return (Logic.Tgd.make ~label:(Printf.sprintf "m%d" k) ~body ~head ())
  in
  let* source = list_size (int_range 1 8) proj_tuple in
  let* j = list_size (int_range 0 8) j_tuple in
  let* n = int_range 1 4 in
  let* tgds = flatten_l (List.init n tgd) in
  return (Instance.of_tuples source, Instance.of_tuples j, tgds)

let per_candidate ~source ~j tgds =
  Array.of_list
    (List.mapi
       (fun index tgd ->
         Cover.stats_of_result ~j ~index tgd (Chase.run source [ tgd ]))
       tgds)

let session_tests =
  [
    Alcotest.test_case "analyze, stats_of_result and cached make agree" `Quick
      (fun () ->
        let source, j, tgds = example () in
        let analyzed = Cover.analyze ~source ~j tgds in
        let per_call = per_candidate ~source ~j tgds in
        let cache = Cache.create () in
        let cold = Core.Problem.make ~cache ~source ~j tgds in
        let warm = Core.Problem.make ~cache ~source ~j tgds in
        Alcotest.(check bool) "non-trivial" true (Array.length analyzed > 3);
        Alcotest.(check bool) "per call" true (same_analysis ~j analyzed per_call);
        Alcotest.(check bool)
          "cached, cold" true
          (same_analysis ~j analyzed cold.Core.Problem.stats);
        Alcotest.(check bool)
          "cached, warm" true
          (same_analysis ~j analyzed warm.Core.Problem.stats));
    Alcotest.test_case "a warm cached make chases nothing and indexes nothing"
      `Quick (fun () ->
        let source, j, tgds = example () in
        let cache = Cache.create () in
        let names = [ "chase.runs"; "cover.relations_indexed" ] in
        let _, cold =
          Fixtures.counting names (fun () -> Core.Problem.make ~cache ~source ~j tgds)
        in
        Alcotest.(check int)
          "cold build misses once per candidate and for the problem key"
          (List.length tgds + 1)
          (Cache.stats cache).Cache.misses;
        let _, warm =
          Fixtures.counting names (fun () -> Core.Problem.make ~cache ~source ~j tgds)
        in
        Alcotest.(check (list int))
          "cold build chases every candidate" [ List.length tgds ]
          [ List.hd cold ];
        Alcotest.(check bool) "cold build indexes J" true (List.nth cold 1 > 0);
        Alcotest.(check (list int)) "warm build" [ 0; 0 ] warm);
    Alcotest.test_case "a mixed-arity source analyzes like per-candidate chases"
      `Quick (fun () ->
        let source =
          Instance.of_tuples
            [
              Tuple.of_consts "proj" [ "ML"; "Alice"; "SAP" ];
              Tuple.of_consts "proj" [ "ML"; "Alice" ];
              Tuple.of_consts "proj" [ "DB"; "Bob" ];
            ]
        in
        let j =
          Instance.of_tuples
            [
              Tuple.of_consts "task" [ "ML"; "Alice" ];
              Tuple.of_consts "task" [ "DB"; "Bob"; "IBM" ];
            ]
        in
        let var x = Logic.Term.Var x in
        let tgds =
          [
            Logic.Tgd.make ~label:"short"
              ~body:[ Logic.Atom.make "proj" [ var "P"; var "E" ] ]
              ~head:[ Logic.Atom.make "task" [ var "P"; var "E" ] ]
              ();
            Logic.Tgd.make ~label:"long"
              ~body:[ Logic.Atom.make "proj" [ var "P"; var "E"; var "O" ] ]
              ~head:[ Logic.Atom.make "task" [ var "P"; var "E"; var "T" ] ]
              ();
            (* the second body atom probes [proj] by [P] across both arities *)
            Logic.Tgd.make ~label:"joined"
              ~body:
                [
                  Logic.Atom.make "proj" [ var "P"; var "E" ];
                  Logic.Atom.make "proj" [ var "P"; var "E"; var "O" ];
                ]
              ~head:[ Logic.Atom.make "task" [ var "P"; var "E"; var "O" ] ]
              ();
          ]
        in
        let analyzed = Cover.analyze ~source ~j tgds in
        Alcotest.(check (list int))
          "produced" [ 2; 1; 1 ]
          (Array.to_list (Array.map (fun s -> s.Cover.produced) analyzed));
        Alcotest.(check bool)
          "per candidate" true
          (same_analysis ~j analyzed (per_candidate ~source ~j tgds)));
    QCheck2.Test.make ~name:"mixed-arity analyze equals per-candidate chases"
      ~count:200 mixed_arity_gen (fun (source, j, tgds) ->
        same_analysis ~j (Cover.analyze ~source ~j tgds)
          (per_candidate ~source ~j tgds)
        && same_analysis ~j
             (Cover.analyze ~core:true ~source ~j tgds)
             (Array.of_list
                (List.mapi
                   (fun index tgd ->
                     Cover.stats_of_result ~core:true ~j ~index tgd
                       (Chase.run source [ tgd ]))
                   tgds)))
    |> QCheck_alcotest.to_alcotest;
  ]

(* [covers] is the traced benchmark path's: the per-call folds fill it
   from [rows], and the fold every selection runs leaves it empty. *)
let covers_field_tests =
  [
    QCheck2.Test.make ~name:"stats_of_result's covers are its degrees"
      ~count:200 ~print:print_differential differential_gen
      (fun (source, j, tgds, semantics, core) ->
        List.for_all
          (fun tgd ->
            let s =
              Cover.stats_of_result ~semantics ~core ~j ~index:0 tgd
                (Chase.run source [ tgd ])
            in
            Tuple.Map.equal Frac.equal s.Cover.covers
              (Tuple.Map.of_list (Cover.degrees ~j s)))
          tgds)
    |> QCheck_alcotest.to_alcotest;
    QCheck2.Test.make ~name:"analyze and cached make leave covers empty"
      ~count:100 ~print:print_differential differential_gen
      (fun (source, j, tgds, semantics, core) ->
        let empty = Array.for_all (fun s -> Tuple.Map.is_empty s.Cover.covers) in
        let cache = Cache.create () in
        let make () = Core.Problem.make ~semantics ~core ~cache ~source ~j tgds in
        let cold = make () in
        let warm = make () in
        empty (Cover.analyze ~semantics ~core ~source ~j tgds)
        && empty cold.Core.Problem.stats
        && empty warm.Core.Problem.stats)
    |> QCheck_alcotest.to_alcotest;
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
      ("fold", fold_tests);
      ("fallback", fallback_tests);
      ("session", session_tests);
      ("covers-field", covers_field_tests);
    ]
