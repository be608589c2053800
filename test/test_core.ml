open Relational
open Util
open Core

let frac = Alcotest.testable Frac.pp Frac.equal

let appendix_problem () =
  Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let extended_problem n =
  let i', j' = Fixtures.extended_example n in
  Problem.make ~source:i' ~j:j' [ Fixtures.theta1; Fixtures.theta3 ]

let sel p idx = Problem.selection_of_indices p idx

(* The appendix's full value table F({}) = 4, F({θ1}) = 7 1/3, F({θ3}) = 8,
   F({θ1,θ3}) = 12 is pinned declaratively in expect/e1_appendix.rtest;
   only the breakdown/accessor details stay as code. *)
let objective_tests =
  [
    Alcotest.test_case "appendix breakdown for {theta1}" `Quick (fun () ->
        let p = appendix_problem () in
        let b = Objective.breakdown p (sel p [ 0 ]) in
        Alcotest.check frac "unexplained 3 1/3" (Frac.make 10 3)
          b.Objective.unexplained;
        Alcotest.(check int) "1 error" 1 b.Objective.errors;
        Alcotest.(check int) "size 3" 3 b.Objective.size);
    Alcotest.test_case "empty_value" `Quick (fun () ->
        let p = appendix_problem () in
        Alcotest.check frac "4" (Frac.of_int 4) (Objective.empty_value p));
    Alcotest.test_case "weighted objective (appendix Theorem 1 variant)"
      `Quick (fun () ->
        let weights =
          { Problem.w_unexplained = 2; w_errors = 3; w_size = 4 }
        in
        let p =
          Problem.make ~weights ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        (* 2·(10/3) + 3·1 + 4·3 = 65/3 *)
        Alcotest.check frac "{theta1}" (Frac.make 65 3)
          (Objective.value p (sel p [ 0 ])));
    Alcotest.test_case "non-positive weights rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "raises" true
          (match
             Problem.make
               ~weights:{ Problem.w_unexplained = 0; w_errors = 1; w_size = 1 }
               ~source:Fixtures.instance_i ~j:Fixtures.instance_j []
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

let solver_agreement_tests =
  [
    Alcotest.test_case "exact picks {} on the small example" `Quick (fun () ->
        let p = appendix_problem () in
        let best = Exact.solve p in
        Alcotest.(check (list int)) "empty" [] (Problem.indices_of_selection best));
    Alcotest.test_case "exact flips to {theta3} with 5 extra projects" `Quick
      (fun () ->
        let p = extended_problem 5 in
        let best = Exact.solve p in
        Alcotest.(check (list int)) "theta3" [ 1 ] (Problem.indices_of_selection best));
    Alcotest.test_case "with 4 extra projects {} is still optimal (tie)"
      `Quick (fun () ->
        let p = extended_problem 4 in
        Alcotest.check frac "tie at 8"
          (Objective.value p (sel p []))
          (Objective.value p (sel p [ 1 ])));
    Alcotest.test_case "greedy also flips to {theta3}" `Quick (fun () ->
        let p = extended_problem 5 in
        Alcotest.(check (list int))
          "theta3" [ 1 ]
          (Problem.indices_of_selection (Greedy.solve p)));
    Alcotest.test_case "cmd also flips to {theta3}" `Quick (fun () ->
        let p = extended_problem 5 in
        let r = Cmd.solve p in
        Alcotest.(check (list int))
          "theta3" [ 1 ]
          (Problem.indices_of_selection r.Cmd.selection);
        Alcotest.check frac "objective 8" (Frac.of_int 8) r.Cmd.objective);
    Alcotest.test_case "cmd fractional values live in [0,1]" `Quick (fun () ->
        let p = extended_problem 5 in
        let r = Cmd.solve p in
        Array.iter
          (fun v ->
            Alcotest.(check bool) "in box" true (v >= -1e-6 && v <= 1. +. 1e-6))
          r.Cmd.fractional);
    Alcotest.test_case "local search never worse than greedy" `Quick (fun () ->
        let p = extended_problem 3 in
        let g = Objective.value p (Greedy.solve p) in
        let l = Objective.value p (Local_search.solve ~restarts:3 p) in
        Alcotest.(check bool) "l <= g" true Frac.(l <= g));
  ]

let model_shape_tests =
  [
    Alcotest.test_case "cmd ground model shape" `Quick (fun () ->
        let p = appendix_problem () in
        let model = Cmd.build_model p in
        (* 2 candidates + 2 coverable tuples, the 2 uncoverable ones are the
           problem's constant *)
        Alcotest.(check int) "vars" 4 (Psl.Hlmrf.num_vars model);
        Alcotest.(check int) "constraints" 2 (Psl.Hlmrf.num_constraints model);
        (* 2 candidate costs + 2 explained losses *)
        Alcotest.(check int) "potentials" 4 (Psl.Hlmrf.num_potentials model);
        (* theta1 alone over the extended example: task(ML,Alice,111) and
           task(Proj0,Alice,111) both have the support [theta1 at 2/3], so
           they share one explained-atom whose loss counts them both *)
        let i', j' = Fixtures.extended_example 1 in
        let weights = { Problem.w_unexplained = 3; w_errors = 1; w_size = 1 } in
        let p = Problem.make ~weights ~source:i' ~j:j' [ Fixtures.theta1 ] in
        Alcotest.(check (array int)) "one group of 2 coverable tuples" [| 2 |]
          p.Problem.group_size;
        let model = Cmd.build_model p in
        Alcotest.(check int) "shared: vars" 2 (Psl.Hlmrf.num_vars model);
        Alcotest.(check int) "shared: constraints" 1
          (Psl.Hlmrf.num_constraints model);
        let explained_weights =
          List.filter_map
            (function
              | Psl.Hlmrf.Linear { weight; expr }
                when Psl.Linexpr.vars expr = [ 1 ] ->
                Some weight
              | _ -> None)
            (Psl.Hlmrf.potentials model)
        in
        Alcotest.(check (list (float 0.))) "one loss of weight 2·w1" [ 6. ]
          explained_weights);
  ]

(* Random problems for the lifting law: problems drawn by their support
   patterns, each shared by up to a dozen tuples, and the selection problems
   of [Fixtures]. *)
let lifting_problem_gen =
  QCheck2.Gen.oneof [ Fixtures.support_problem_gen; Fixtures.selection_problem_gen ]

(* The per-tuple model's energy at [x], each explained-atom at its best
   value [min(1, Σ d·x)]: the relaxed objective as a function of [x]. *)
let per_tuple_energy p ~squared x =
  let m = Problem.num_candidates p in
  let model = Ground_oracle.build_model ~squared p in
  Psl.Hlmrf.energy model (Ground_oracle.extend model ~m x)

let lifting_tests =
  let open QCheck2 in
  [
    Test.make ~name:"lifted energy equals per-tuple energy at every x"
      ~count:500
      Gen.(
        let* p = lifting_problem_gen and* squared = bool in
        let+ x =
          array_repeat (Problem.num_candidates p) (float_bound_inclusive 1.)
        in
        (p, squared, x))
      (fun (p, squared, x) ->
        let m = Problem.num_candidates p in
        let lifted = Cmd.build_model ~squared p in
        let e_lifted = Psl.Hlmrf.energy lifted (Ground_oracle.extend lifted ~m x) in
        let e_tuple = per_tuple_energy p ~squared x in
        Float.abs (e_lifted -. e_tuple)
        <= 1e-9 *. Float.max (Float.abs e_lifted) (Float.abs e_tuple));
    (* at default tolerances the two solutions' energies differ by up to
       about 6e-3; tightened a hundredfold, by at most 4e-5 in 1,600 draws *)
    Test.make ~name:"ADMM on either model reaches the same per-tuple energy"
      ~count:200 Gen.(pair lifting_problem_gen bool) (fun (p, squared) ->
        let m = Problem.num_candidates p in
        let options =
          { Psl.Admm.default_options with Psl.Admm.eps_abs = 1e-7; eps_rel = 1e-6 }
        in
        let solve model =
          Array.sub (Psl.Admm.solve ~options model).Psl.Admm.solution 0 m
        in
        let e_lifted = per_tuple_energy p ~squared (solve (Cmd.build_model ~squared p)) in
        let e_tuple =
          per_tuple_energy p ~squared (solve (Ground_oracle.build_model ~squared p))
        in
        Float.abs (e_lifted -. e_tuple) <= 1e-3 *. Float.max 1. (Float.abs e_tuple));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* Section III-C's preprocessing is the lifted view's constant: tuples no
   candidate covers form no group, and each adds w1 to every objective. *)
let preprocess_tests =
  (* the unexplained term with every group fully explained *)
  let constant p =
    Objective.unexplained p (Array.make (Problem.num_groups p) Frac.one)
  in
  [
    Alcotest.test_case "certainly unexplained tuples are removed" `Quick
      (fun () ->
        let p = appendix_problem () in
        Alcotest.(check int)
          "2 kept" 2
          (Array.fold_left ( + ) 0 p.Problem.group_size);
        Alcotest.(check int) "2 removed" 2 p.Problem.uncoverable;
        Alcotest.check frac "constant 2" (Frac.of_int 2) (constant p));
    Alcotest.test_case "full_value matches the original objective" `Quick
      (fun () ->
        let p = appendix_problem () in
        List.iter
          (fun idx ->
            let s = sel p idx in
            Alcotest.check frac
              (Printf.sprintf "selection of %d" (List.length idx))
              (Tuple_oracle.value p s) (Objective.value p s))
          [ []; [ 0 ]; [ 1 ]; [ 0; 1 ] ]);
    Alcotest.test_case "weights scale the removed constant" `Quick (fun () ->
        let weights = { Problem.w_unexplained = 3; w_errors = 1; w_size = 1 } in
        let p =
          Problem.make ~weights ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Alcotest.check frac "constant 6" (Frac.of_int 6) (constant p));
  ]

(* --- random-problem properties ----------------------------------------- *)

(* Small random problems built from the appendix vocabulary with a pool of
   six candidate tgds (shared with the incremental differential suite);
   exact search must match brute-force enumeration and lower-bound the
   heuristics. *)
let problem_gen = Fixtures.selection_problem_gen

let brute_force p =
  let m = Problem.num_candidates p in
  let best = ref (Array.make m false) in
  let best_v = ref (Objective.value p !best) in
  for mask = 1 to (1 lsl m) - 1 do
    let s = Array.init m (fun i -> mask land (1 lsl i) <> 0) in
    let v = Objective.value p s in
    if Frac.(v < !best_v) then begin
      best := s;
      best_v := v
    end
  done;
  !best_v

let property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"exact equals brute force" ~count:60 problem_gen (fun p ->
        Frac.equal (Objective.value p (Exact.solve p)) (brute_force p));
    Test.make ~name:"heuristics are sound upper bounds" ~count:60 problem_gen
      (fun p ->
        let opt = Objective.value p (Exact.solve p) in
        let greedy = Objective.value p (Greedy.solve p) in
        let cmd = (Cmd.solve p).Cmd.objective in
        let local = Objective.value p (Local_search.solve p) in
        Frac.(opt <= greedy) && Frac.(opt <= cmd) && Frac.(opt <= local))
    ;
    Test.make ~name:"cmd never exceeds the empty mapping" ~count:60 problem_gen
      (fun p -> Frac.((Cmd.solve p).Cmd.objective <= Objective.empty_value p));
    Test.make ~name:"preprocessing preserves objectives" ~count:40 problem_gen
      (fun p ->
        let m = Problem.num_candidates p in
        List.for_all
          (fun mask ->
            let s = Array.init m (fun i -> mask land (1 lsl i) <> 0) in
            Frac.equal (Objective.value p s) (Tuple_oracle.value p s))
          [ 0; 1; (1 lsl m) - 1 ]);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- SET COVER reduction ------------------------------------------------ *)

let example_cover =
  {
    Setcover.universe = [ "1"; "2"; "3"; "4"; "5" ];
    sets = [ ("A", [ "1"; "2"; "3" ]); ("B", [ "3"; "4" ]); ("C", [ "4"; "5" ]); ("D", [ "1"; "5" ]) ];
    budget = 2;
  }

let setcover_tests =
  [
    Alcotest.test_case "cover of size 2 exists" `Quick (fun () ->
        Alcotest.(check bool) "decide" true (Setcover.decide example_cover));
    Alcotest.test_case "no cover of size 1" `Quick (fun () ->
        Alcotest.(check bool)
          "decide" false
          (Setcover.decide { example_cover with Setcover.budget = 1 }));
    Alcotest.test_case "closed form matches the constructed problem" `Quick
      (fun () ->
        let red = Setcover.reduce example_cover in
        let p = red.Setcover.problem in
        let names = red.Setcover.set_names in
        for mask = 0 to (1 lsl Array.length names) - 1 do
          let selected =
            List.filteri
              (fun i _ -> mask land (1 lsl i) <> 0)
              (Array.to_list names)
          in
          let s =
            Array.init (Array.length names) (fun i -> mask land (1 lsl i) <> 0)
          in
          Alcotest.check frac
            (Printf.sprintf "mask %d" mask)
            (Setcover.closed_form example_cover ~selected)
            (Objective.value p s)
        done);
    Alcotest.test_case "Theorem 1 formula: hand-computed golden values" `Quick
      (fun () ->
        (* m = 2·budget = 4, |U| = 5, so F(M) = 5·(5 − |∪ R_i|) + 2|M|:
           F({})      = 5·5 + 0 = 25
           F({A})     = 5·(5−3) + 2 = 12   (A covers {1,2,3})
           F({B,C})   = 5·(5−3) + 4 = 14   (B∪C = {3,4,5})
           F({A,C})   = 5·0 + 4 = 4        (a minimum cover)
           F(all 4)   = 5·0 + 8 = 8 *)
        let red = Setcover.reduce example_cover in
        List.iter
          (fun (selected, expected) ->
            Alcotest.check frac
              (Printf.sprintf "F({%s})" (String.concat "," selected))
              (Frac.of_int expected)
              (Setcover.closed_form example_cover ~selected);
            let s =
              Array.map
                (fun n -> List.mem n selected)
                red.Setcover.set_names
            in
            Alcotest.check frac
              (Printf.sprintf "Eq.9 on reduction, {%s}"
                 (String.concat "," selected))
              (Frac.of_int expected)
              (Objective.value red.Setcover.problem s))
          [
            ([], 25);
            ([ "A" ], 12);
            ([ "B"; "C" ], 14);
            ([ "A"; "C" ], 4);
            ([ "A"; "B"; "C"; "D" ], 8);
          ]);
    Alcotest.test_case "optimal selection is a minimum cover" `Quick (fun () ->
        let red = Setcover.reduce example_cover in
        let best = Exact.solve red.Setcover.problem in
        let cover = Setcover.cover_of_selection red best in
        Alcotest.(check int) "2 sets" 2 (List.length cover);
        (* the chosen sets cover the universe *)
        let covered =
          List.concat_map
            (fun n -> List.assoc n example_cover.Setcover.sets)
            cover
          |> List.sort_uniq String.compare
        in
        Alcotest.(check int) "covers all 5" 5 (List.length covered));
    Alcotest.test_case "validate rejects foreign elements" `Quick (fun () ->
        let bad =
          { example_cover with Setcover.sets = [ ("Z", [ "9" ]) ] }
        in
        Alcotest.(check bool) "rejected" true (Setcover.validate bad <> Ok ()));
    Alcotest.test_case "F <= m iff cover within budget (both sides)" `Quick
      (fun () ->
        (* budget 3 also admits covers, e.g. {A, B, C} *)
        Alcotest.(check bool)
          "budget 3" true
          (Setcover.decide { example_cover with Setcover.budget = 3 }));
  ]

let setcover_property_tests =
  let open QCheck2 in
  let instance_gen =
    let open Gen in
    let* u_size = int_range 2 5 in
    let universe = List.init u_size string_of_int in
    let* n_sets = int_range 1 4 in
    let* sets =
      list_size (return n_sets)
        (let* mask = int_range 1 ((1 lsl u_size) - 1) in
         return (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) universe))
    in
    let sets = List.mapi (fun i s -> (Printf.sprintf "S%d" i, s)) sets in
    let* budget = int_range 1 3 in
    return { Setcover.universe; sets; budget }
  in
  [
    Test.make ~name:"closed form equals Eq.9 on reduction instances" ~count:40
      instance_gen (fun inst ->
        let red = Setcover.reduce inst in
        let names = red.Setcover.set_names in
        List.for_all
          (fun mask ->
            let selected =
              List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list names)
            in
            let s =
              Array.init (Array.length names) (fun i -> mask land (1 lsl i) <> 0)
            in
            (* the literal Theorem 1 formula, computed independently; its
               [m] is the decision threshold 2·budget *)
            let m = 2 * inst.Setcover.budget in
            let covered =
              List.concat_map
                (fun n -> List.assoc n inst.Setcover.sets)
                selected
              |> List.sort_uniq String.compare |> List.length
            in
            let u = List.length (List.sort_uniq String.compare inst.Setcover.universe) in
            let formula =
              Frac.of_int (((m + 1) * (u - covered)) + (2 * List.length selected))
            in
            Frac.equal formula (Setcover.closed_form inst ~selected)
            && Frac.equal formula (Objective.value red.Setcover.problem s))
          (List.init (1 lsl Array.length names) Fun.id));
    Test.make ~name:"decide agrees with brute-force set cover" ~count:40
      instance_gen (fun inst ->
        let universe = List.sort_uniq String.compare inst.Setcover.universe in
        let n_sets = List.length inst.Setcover.sets in
        let brute =
          List.exists
            (fun mask ->
              let chosen =
                List.filteri (fun i _ -> mask land (1 lsl i) <> 0) inst.Setcover.sets
              in
              List.length chosen <= inst.Setcover.budget
              && List.sort_uniq String.compare
                   (List.concat_map snd chosen)
                 = universe)
            (List.init (1 lsl n_sets) Fun.id)
        in
        Setcover.decide inst = brute);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let anneal_tests =
  [
    Alcotest.test_case "anneal also flips to {theta3}" `Quick (fun () ->
        let p = extended_problem 5 in
        let sel = Anneal.solve p in
        Alcotest.(check (list int)) "theta3" [ 1 ] (Problem.indices_of_selection sel));
    Alcotest.test_case "anneal handles the empty problem" `Quick (fun () ->
        let p = Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j [] in
        Alcotest.(check int) "no candidates" 0 (Array.length (Anneal.solve p)));
    Alcotest.test_case "a hot walk returns the best state visited" `Quick
      (fun () ->
        (* the walk starts at the appendix optimum {} and accepts almost
           every flip, so it ends elsewhere; the answer is still {} *)
        let options =
          { Anneal.iterations = 25; initial_temperature = 1e6; cooling = 1.; seed = 0 }
        in
        Alcotest.(check (list int))
          "{}" []
          (Problem.indices_of_selection (Anneal.solve ~options (appendix_problem ()))));
    Alcotest.test_case "deterministic for a fixed seed" `Quick (fun () ->
        let p = extended_problem 3 in
        Alcotest.(check bool)
          "same" true
          (Anneal.solve p = Anneal.solve p));
    Alcotest.test_case "solve_multi with one chain equals solve" `Quick
      (fun () ->
        (* chain 0 keeps the base seed (Seed.derive s 0 = s) *)
        let p = extended_problem 5 in
        Alcotest.(check bool)
          "same" true
          (Anneal.solve p = Anneal.solve_multi ~chains:1 p));
    Alcotest.test_case "?seed overrides options.seed" `Quick (fun () ->
        let p = extended_problem 5 in
        Alcotest.(check bool)
          "same" true
          (Anneal.solve ~seed:7 p
          = Anneal.solve
              ~options:{ Anneal.default_options with Anneal.seed = 7 }
              p));
  ]

let anneal_property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"anneal between exact and empty" ~count:40 problem_gen
      (fun p ->
        let v = Objective.value p (Anneal.solve p) in
        Frac.(Objective.value p (Exact.solve p) <= v)
        && Frac.(v <= Objective.empty_value p));
    Test.make ~name:"solve_multi with one chain equals solve" ~count:40
      problem_gen (fun p -> Anneal.solve p = Anneal.solve_multi ~chains:1 p);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let semantics_tests =
  [
    Alcotest.test_case "strict semantics caps theta3 coverage" `Quick
      (fun () ->
        let p =
          Problem.make ~semantics:Cover.Strict ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j [ Fixtures.theta1; Fixtures.theta3 ]
        in
        (* under Strict, theta3 covers task(ML,Alice,111) only 2/3 and
           org(111,SAP) only 1/2: F({theta3}) = (4 - 2/3 - 1/2) + 2 + 4 *)
        Alcotest.check frac "{theta3} strict" (Frac.make 53 6)
          (Objective.value p (sel p [ 1 ])));
    Alcotest.test_case "generous semantics lifts theta1 to full coverage"
      `Quick (fun () ->
        let p =
          Problem.make ~semantics:Cover.Generous ~source:Fixtures.instance_i
            ~j:Fixtures.instance_j [ Fixtures.theta1; Fixtures.theta3 ]
        in
        (* theta1's null now counts: F({theta1}) = (4 - 1) + 1 + 3 = 7 *)
        Alcotest.check frac "{theta1} generous" (Frac.of_int 7)
          (Objective.value p (sel p [ 0 ])));
    Alcotest.test_case "corroborated is the default" `Quick (fun () ->
        let explicit =
          Problem.make ~semantics:Cover.Corroborated
            ~source:Fixtures.instance_i ~j:Fixtures.instance_j
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        let default = appendix_problem () in
        List.iter
          (fun idx ->
            Alcotest.check frac "same objective"
              (Objective.value default (sel default idx))
              (Objective.value explicit (sel explicit idx)))
          [ []; [ 0 ]; [ 1 ]; [ 0; 1 ] ]);
  ]

(* --- full tgds: one component per candidate ------------------------------ *)

(* Three full candidates over [full_j], no two covering a common tuple *)
let full_candidates =
  let v = Fixtures.v in
  let open Logic in
  [
    (* proj -> org copies, all full *)
    Tgd.make ~label:"f1"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "org" [ v "P"; v "O" ] ]
      ();
    Tgd.make ~label:"f2"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "task" [ v "P"; v "E"; v "O" ] ]
      ();
    Tgd.make ~label:"f3"
      ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
      ~head:[ Atom.make "org" [ v "O"; v "O" ] ]
      ();
  ]

let full_j =
  Instance.of_tuples
    [
      Tuple.of_consts "task" [ "BigData"; "Bob"; "IBM" ];
      Tuple.of_consts "task" [ "ML"; "Alice"; "SAP" ];
      Tuple.of_consts "org" [ "BigData"; "IBM" ];
    ]

let full_problem () =
  Problem.make ~source:Fixtures.instance_i ~j:full_j full_candidates

(* [Exact.max_candidates] bounds the largest component, not the problem *)
let component_cap_tests =
  [
    Alcotest.test_case "more candidates than the cap, every component under it"
      `Quick (fun () ->
        let p = full_problem () in
        Alcotest.(check int) "three candidates" 3 (Problem.num_candidates p);
        Alcotest.check frac "solved under a cap of one" (brute_force p)
          (Objective.value p (Exact.solve ~max_candidates:1 p)));
  ]

let invariant_property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"cmd is deterministic" ~count:20 problem_gen (fun p ->
        let r1 = Cmd.solve p and r2 = Cmd.solve p in
        r1.Cmd.selection = r2.Cmd.selection
        && Frac.equal r1.Cmd.objective r2.Cmd.objective);
    Test.make ~name:"local search output is a 1-flip local optimum" ~count:30
      problem_gen (fun p ->
        let sel = Local_search.solve p in
        let v = Objective.value p sel in
        let m = Problem.num_candidates p in
        List.for_all
          (fun c ->
            sel.(c) <- not sel.(c);
            let v' = Objective.value p sel in
            sel.(c) <- not sel.(c);
            Frac.(v <= v'))
          (List.init m Fun.id));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let tune_tests =
  [
    Alcotest.test_case "with_weights rescales candidate costs" `Quick
      (fun () ->
        let p = appendix_problem () in
        let heavier =
          Problem.with_weights p
            { Problem.w_unexplained = 1; w_errors = 2; w_size = 3 }
        in
        (* theta1: 2·1 errors + 3·3 size = 11 *)
        Alcotest.check frac "theta1 cost" (Frac.of_int 11)
          heavier.Problem.cand_cost.(0);
        (* coverage degrees are untouched *)
        Alcotest.(check int)
          "covers unchanged"
          (Array.length p.Problem.covers.(0))
          (Array.length heavier.Problem.covers.(0)));
    Alcotest.test_case "with_weights validates" `Quick (fun () ->
        let p = appendix_problem () in
        Alcotest.(check bool)
          "rejects zero" true
          (match
             Problem.with_weights p
               { Problem.w_unexplained = 1; w_errors = 0; w_size = 1 }
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "candidate costs overflow rather than wrap" `Quick
      (fun () ->
        (* theta1 has 2 errors and size 3: 2·w2 overflows, and so does
           (max_int/2)·2 + 3, a sum of two products that each fit *)
        let overflows weights =
          match
            Problem.make ~weights ~source:Fixtures.instance_i ~j:Fixtures.instance_j
              [ Fixtures.theta1; Fixtures.theta3 ]
          with
          | exception Frac.Overflow -> (
            match Problem.with_weights (appendix_problem ()) weights with
            | exception Frac.Overflow -> true
            | _ -> false)
          | _ -> false
        in
        Alcotest.(check bool) "w2 = 2^62 - 512" true
          (overflows { Problem.w_unexplained = 1; w_errors = 4611686018427387392; w_size = 1 });
        Alcotest.(check bool) "w2 = max_int / 2" true
          (overflows { Problem.w_unexplained = 1; w_errors = max_int / 2; w_size = 1 });
        Alcotest.(check bool) "w3 = max_int / 2" true
          (overflows { Problem.w_unexplained = 1; w_errors = 1; w_size = max_int / 2 }));
    Alcotest.test_case "grid search finds a perfect-score triple" `Quick
      (fun () ->
        (* gold = the exact optimum under (1,1,1); since (1,1,1) is in the
           grid and first, the search can score |C| agreements with it *)
        let p = extended_problem 5 in
        let gold = Exact.solve p in
        let w = Tune.grid_search ~training:[ (p, gold) ] () in
        Alcotest.(check int)
          "perfect agreement"
          (Problem.num_candidates p)
          (Tune.score p ~gold w));
    Alcotest.test_case "grid search rejects empty inputs" `Quick (fun () ->
        let p = appendix_problem () in
        Alcotest.(check bool)
          "no training" true
          (match Tune.grid_search ~training:[] () with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Alcotest.(check bool)
          "no grid" true
          (match
             Tune.grid_search ~grid:[] ~training:[ (p, [| false; false |]) ] ()
           with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "default grid starts at the paper's weights" `Quick
      (fun () ->
        Alcotest.(check bool)
          "(1,1,1) first" true
          (List.hd Tune.default_grid = (1, 1, 1));
        Alcotest.(check int) "27 triples" 27 (List.length Tune.default_grid));
  ]

let edge_case_tests =
  [
    Alcotest.test_case "empty candidate set: all solvers agree" `Quick
      (fun () ->
        let p = Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j [] in
        Alcotest.(check int) "no candidates" 0 (Problem.num_candidates p);
        Alcotest.check frac "objective = |J|" (Frac.of_int 4)
          (Objective.value p [||]);
        Alcotest.(check int) "greedy" 0 (Array.length (Greedy.solve p));
        Alcotest.(check int) "exact" 0 (Array.length (Exact.solve p));
        let r = Cmd.solve p in
        Alcotest.(check int) "cmd" 0 (Array.length r.Cmd.selection);
        Alcotest.check frac "cmd objective" (Frac.of_int 4) r.Cmd.objective);
    Alcotest.test_case "empty data example: size decides" `Quick (fun () ->
        (* no tuples anywhere: every candidate only costs size, so the empty
           mapping is optimal *)
        let p =
          Problem.make ~source:Instance.empty ~j:Instance.empty
            [ Fixtures.theta1; Fixtures.theta3 ]
        in
        Alcotest.check frac "F({}) = 0" Frac.zero (Objective.value p (sel p []));
        Alcotest.(check (list int))
          "exact picks nothing" []
          (Problem.indices_of_selection (Exact.solve p)));
    Alcotest.test_case "exact candidate limit enforced" `Quick (fun () ->
        let p = appendix_problem () in
        Alcotest.(check bool)
          "raises a typed solver error" true
          (match Exact.solve ~max_candidates:1 p with
          | exception Solver_error.Error { solver = "exact"; _ } -> true
          | _ -> false));
    Alcotest.test_case "objective explains accessor" `Quick (fun () ->
        let p = appendix_problem () in
        Alcotest.check frac "tuple 0 by theta3" Frac.one
          (let s = sel p [ 1 ] in
           let best = Objective.group_coverage p s in
           Array.fold_left Frac.max Frac.zero best));
    Alcotest.test_case "setcover validate rejects zero budget" `Quick
      (fun () ->
        Alcotest.(check bool)
          "rejected" true
          (Setcover.validate
             { Setcover.universe = [ "a" ]; sets = [ ("S", [ "a" ]) ]; budget = 0 }
          <> Ok ()));
    (* cached construction of the appendix problem (cold + warm digests and
       table values) now lives in expect/e1_appendix.rtest's cached-registry
       test *)
  ]

let () =
  Alcotest.run "core"
    [
      ("objective", objective_tests);
      ("solvers", solver_agreement_tests);
      ("model-shape", model_shape_tests);
      ("lifting", lifting_tests);
      ("preprocess", preprocess_tests);
      ("properties", property_tests);
      ("setcover", setcover_tests);
      ("setcover-properties", setcover_property_tests);
      ("anneal", anneal_tests);
      ("anneal-properties", anneal_property_tests);
      ("semantics", semantics_tests);
      ("exact-per-component-caps", component_cap_tests);
      ("invariants", invariant_property_tests);
      ("tune", tune_tests);
      ("edge-cases", edge_case_tests);
    ]
