open Psl

let close ?(tol = 1e-3) () = Alcotest.float tol

let solve model = Admm.solve model

let linexpr_tests =
  [
    Alcotest.test_case "make merges duplicates and drops zeros" `Quick
      (fun () ->
        let e = Linexpr.make [ (0, 1.); (0, 2.); (1, 0.) ] 0.5 in
        Alcotest.(check (list int)) "vars" [ 0 ] (Linexpr.vars e);
        Alcotest.check (close ()) "eval" 3.5 (Linexpr.eval e [| 1.0; 9. |]));
    Alcotest.test_case "norm2" `Quick (fun () ->
        let e = Linexpr.make [ (0, 3.); (1, 4.) ] 0. in
        Alcotest.check (close ()) "25" 25. (Linexpr.norm2 e));
  ]

(* hinge w·max(0, Σ coeffs + b) *)
let hinge ?(squared = false) w coeffs b =
  Hlmrf.Hinge { weight = w; expr = Linexpr.make coeffs b; squared }

let linear w coeffs b = Hlmrf.Linear { weight = w; expr = Linexpr.make coeffs b }

let admm_tests =
  [
    Alcotest.test_case "interval of zero energy" `Quick (fun () ->
        (* max(0, 0.3−x) + max(0, x−0.7): any x in [0.3, 0.7] is optimal *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (hinge 1. [ (0, -1.) ] 0.3);
        Hlmrf.add_potential m (hinge 1. [ (0, 1.) ] (-0.7));
        let r = solve m in
        Alcotest.(check bool) "converged" true r.Admm.converged;
        Alcotest.check (close ()) "zero energy" 0. r.Admm.energy;
        Alcotest.(check bool)
          "inside interval" true
          (r.Admm.solution.(0) >= 0.29 && r.Admm.solution.(0) <= 0.71));
    Alcotest.test_case "competing linear pulls" `Quick (fun () ->
        (* 2x + max(0, 1−x): optimum x = 0 with energy 1 *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (linear 2. [ (0, 1.) ] 0.);
        Hlmrf.add_potential m (hinge 1. [ (0, -1.) ] 1.);
        let r = solve m in
        Alcotest.check (close ()) "x=0" 0. r.Admm.solution.(0);
        Alcotest.check (close ()) "energy 1" 1. r.Admm.energy);
    Alcotest.test_case "equality constraint pins the variable" `Quick
      (fun () ->
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (linear 1. [ (0, 1.) ] 0.);
        Hlmrf.add_constraint m (Hlmrf.Eq (Linexpr.make [ (0, 1.) ] (-0.6)));
        let r = solve m in
        Alcotest.check (close ()) "x=0.6" 0.6 r.Admm.solution.(0));
    Alcotest.test_case "inequality constraint caps the maximizer" `Quick
      (fun () ->
        (* minimize −x subject to x ≤ 0.4 *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (linear (-1.) [ (0, 1.) ] 0.);
        Hlmrf.add_constraint m (Hlmrf.Leq (Linexpr.make [ (0, 1.) ] (-0.4)));
        let r = solve m in
        Alcotest.check (close ()) "x=0.4" 0.4 r.Admm.solution.(0));
    Alcotest.test_case "squared hinge balances quadratically" `Quick (fun () ->
        (* max(0, x−0)² pulls to 0, max(0, 0.8−x)² pulls to 0.8: minimise
           x² + (0.8−x)² → x = 0.4, energy 0.32 *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (hinge ~squared:true 1. [ (0, 1.) ] 0.);
        Hlmrf.add_potential m (hinge ~squared:true 1. [ (0, -1.) ] 0.8);
        let r = solve m in
        Alcotest.check (close ~tol:1e-2 ()) "x=0.4" 0.4 r.Admm.solution.(0);
        Alcotest.check (close ~tol:1e-2 ()) "energy" 0.32 r.Admm.energy);
    Alcotest.test_case "two-variable chain" `Quick (fun () ->
        (* strong pulls x→0.8, y→0.2 plus weak hinge max(0, x−y) *)
        let m = Hlmrf.create ~num_vars:2 in
        Hlmrf.add_potential m (hinge 10. [ (0, -1.) ] 0.8);
        Hlmrf.add_potential m (hinge 10. [ (1, 1.) ] (-0.2));
        Hlmrf.add_potential m (hinge 1. [ (0, 1.); (1, -1.) ] 0.);
        let r = solve m in
        Alcotest.check (close ~tol:5e-3 ()) "x" 0.8 r.Admm.solution.(0);
        Alcotest.check (close ~tol:5e-3 ()) "y" 0.2 r.Admm.solution.(1);
        Alcotest.check (close ~tol:1e-2 ()) "energy" 0.6 r.Admm.energy);
    Alcotest.test_case "box clipping" `Quick (fun () ->
        (* minimize −3x: pushed to the box boundary x = 1 *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (linear (-3.) [ (0, 1.) ] 0.);
        let r = solve m in
        Alcotest.check (close ()) "x=1" 1. r.Admm.solution.(0));
    Alcotest.test_case "empty model converges immediately" `Quick (fun () ->
        let m = Hlmrf.create ~num_vars:3 in
        let r = solve m in
        Alcotest.(check bool) "converged" true r.Admm.converged;
        Alcotest.check (close ()) "zero" 0. r.Admm.energy);
  ]

(* Random constraint-free HL-MRFs; ADMM should never be beaten by projected
   subgradient descent by more than a small tolerance. *)
let random_model_gen =
  let open QCheck2.Gen in
  let* n = int_range 2 4 in
  let coeff = oneofl [ -1.; -0.5; 0.5; 1. ] in
  let potential_gen =
    let* k = int_range 1 n in
    let* idx = list_size (return k) (int_range 0 (n - 1)) in
    let* cs = list_size (return k) coeff in
    let* b = float_range (-1.) 1. in
    let* w = float_range 0.1 2. in
    let* squared = bool in
    let expr = Linexpr.make (List.combine idx cs) b in
    if expr.Linexpr.coeffs = [] then
      return (hinge w [ (0, 1.) ] b)
    else return (Hlmrf.Hinge { weight = w; expr; squared })
  in
  let* pots = list_size (int_range 1 6) potential_gen in
  let m = Hlmrf.create ~num_vars:n in
  List.iter (Hlmrf.add_potential m) pots;
  return m

let property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"ADMM matches projected subgradient descent" ~count:60
      random_model_gen (fun m ->
        let admm = Admm.solve m in
        let gd = Gradient.solve ~iterations:3000 m in
        admm.Admm.energy <= Hlmrf.energy m gd +. 0.02);
    Test.make ~name:"ADMM solutions are feasible" ~count:60 random_model_gen
      (fun m ->
        let admm = Admm.solve m in
        Hlmrf.feasible ~tol:1e-4 m admm.Admm.solution);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- bit-identity with the record-list kernel ---------------------------- *)

let bits = Int64.bits_of_float

(* Solution and energy compared bit for bit, not within a tolerance. *)
let same_outcome (a : Admm.outcome) (b : Admm.outcome) =
  a.Admm.iterations = b.Admm.iterations
  && a.Admm.converged = b.Admm.converged
  && bits a.Admm.energy = bits b.Admm.energy
  && Array.length a.Admm.solution = Array.length b.Admm.solution
  && Array.for_all2 (fun u w -> bits u = bits w) a.Admm.solution b.Admm.solution

let options_gen =
  let open QCheck2.Gen in
  let* rho = oneofl [ 0.25; 0.5; 1.; 1.7; 4. ] in
  let+ max_iter = oneofl [ 0; 1; 2; 3; 7; 40; 300; 2000 ] in
  { Admm.default_options with Admm.rho; max_iter }

(* Every factor kind the kernel distinguishes, with the shapes it drops
   (zero weights, empty expressions) and raw expressions that
   [Linexpr.make] would normalise away: zero coefficients (so a zero
   norm), repeated variables. The non-finite numbers it offers must be
   rejected by [Hlmrf], so every solution stays finite. *)
let oracle_model_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let expr_gen =
    let* k = int_range 0 4 in
    let* terms =
      list_size (return k)
        (pair (int_range 0 (n - 1)) (oneofl [ -1.; -0.5; 0.; 0.3; 1.; 2. ]))
    in
    let* b = float_range (-1.5) 1.5 in
    let* raw = bool in
    return (if raw then { Linexpr.coeffs = terms; constant = b } else Linexpr.make terms b)
  in
  let factor_gen =
    let* e = expr_gen in
    let* w = oneof [ return 0.; float_range 0. 3. ] in
    let* sign = oneofl [ 1.; -1. ] in
    let pot p m = Hlmrf.add_potential m p and con c m = Hlmrf.add_constraint m c in
    oneofl
      [
        pot (Hlmrf.Hinge { weight = w; expr = e; squared = false });
        pot (Hlmrf.Hinge { weight = w; expr = e; squared = true });
        pot (Hlmrf.Linear { weight = sign *. w; expr = e });
        con (Hlmrf.Leq e);
        con (Hlmrf.Eq e);
        pot (linear Float.nan [ (0, 1.) ] 0.);
        pot (hinge 1. [ (0, 1.) ] Float.infinity);
        con (Hlmrf.Leq (Linexpr.make [ (0, Float.neg_infinity) ] 0.));
      ]
  in
  let+ adds = list_size (int_range 0 10) factor_gen in
  let m = Hlmrf.create ~num_vars:n in
  List.iter (fun add -> try add m with Invalid_argument _ -> ()) adds;
  m

(* CMD's own ground models, linear and squared, on scenarios shaped like
   the pipeline benchmark's [small] workload: every primitive once, 32
   rows, noise 25/20/20. *)
let cmd_models =
  lazy
    (List.init 4 (fun k ->
         let config =
           {
             Ibench.Config.default with
             Ibench.Config.primitives = List.map (fun p -> (p, 1)) Ibench.Primitive.all;
             rows_per_relation = 32;
             pi_corresp = 25;
             pi_errors = 20;
             pi_unexplained = 20;
             seed = 101 + k;
           }
         in
         let s = Ibench.Generator.generate config in
         let p =
           Core.Problem.make ~source:s.Ibench.Scenario.instance_i
             ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
         in
         let reduced = (Core.Preprocess.run p).Core.Preprocess.problem in
         [ Core.Cmd.build_model reduced; Core.Cmd.build_model ~squared:true reduced ])
    |> List.concat |> Array.of_list)

let oracle_tests =
  let open QCheck2 in
  let agrees (options, m) =
    let r = Admm.solve ~options m in
    same_outcome r (Admm_oracle.solve ~options m)
    && Array.for_all Float.is_finite r.Admm.solution
  in
  [
    Test.make ~name:"flat kernel is bit-identical to the record kernel" ~count:500
      Gen.(pair options_gen oracle_model_gen)
      agrees;
    Test.make ~name:"bit-identical on CMD's ground models" ~count:24
      Gen.(pair options_gen (int_bound 7))
      (fun (options, k) -> agrees (options, (Lazy.force cmd_models).(k)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- rule layer -------------------------------------------------------- *)

let smokers_db friends =
  Database.create
    [ Predicate.make ~closed:true "friend" 2; Predicate.make "smokes" 1 ]
  |> Database.observe_all
       (List.map (fun (a, b) -> (Gatom.make "friend" [ a; b ], 1.0)) friends)

let influence_rule =
  Rule.make ~label:"influence" ~weight:(Some 1.)
    ~body:[ Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ]; Rule.pos "smokes" [ Rule.V "X" ] ]
    ~head:[ Rule.pos "smokes" [ Rule.V "Y" ] ]
    ()

let grounding_tests =
  [
    Alcotest.test_case "one grounding per closed fact" `Quick (fun () ->
        let db = smokers_db [ ("a", "b"); ("b", "c") ] in
        let g = Grounding.ground db [ influence_rule ] in
        Alcotest.(check int) "2 groundings" 2 g.Grounding.groundings;
        Alcotest.(check int) "3 open atoms" 3 (Array.length g.Grounding.atoms));
    Alcotest.test_case "influence propagates smoking" `Quick (fun () ->
        let db = smokers_db [ ("a", "b") ] in
        let reward =
          Rule.make ~label:"fact" ~weight:(Some 2.) ~body:[]
            ~head:[ Rule.pos "smokes" [ Rule.C "a" ] ]
            ()
        in
        let prior =
          Rule.make ~label:"prior" ~weight:(Some 0.5)
            ~body:[ Rule.pos "smokes" [ Rule.V "X" ]; Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ] ]
            ~head:[] ()
        in
        ignore prior;
        let g = Grounding.ground db [ influence_rule; reward ] in
        let r = Grounding.map_inference g in
        let truth name =
          Option.get (Grounding.truth_in g r.Admm.solution (Gatom.make "smokes" [ name ]))
        in
        Alcotest.check (close ~tol:1e-2 ()) "a smokes" 1.0 (truth "a");
        Alcotest.check (close ~tol:1e-2 ()) "b smokes" 1.0 (truth "b"));
    Alcotest.test_case "hard rule forces truth" `Quick (fun () ->
        let db =
          Database.create [ Predicate.make "p" 1 ]
        in
        let force =
          Rule.make ~label:"force" ~weight:None ~body:[]
            ~head:[ Rule.pos "p" [ Rule.C "a" ] ]
            ()
        in
        let discourage =
          Rule.make ~label:"discourage" ~weight:(Some 5.)
            ~body:[ Rule.pos "p" [ Rule.C "a" ] ]
            ~head:[] ()
        in
        let g = Grounding.ground db [ force; discourage ] in
        let r = Grounding.map_inference g in
        Alcotest.check (close ~tol:1e-2 ()) "forced" 1.0
          (Option.get (Grounding.truth_in g r.Admm.solution (Gatom.make "p" [ "a" ]))));
    Alcotest.test_case "violated constant hard rule raises" `Quick (fun () ->
        let db = Database.create [ Predicate.make ~closed:true "q" 1 ] in
        let impossible =
          Rule.make ~label:"impossible" ~weight:None ~body:[]
            ~head:[ Rule.pos "q" [ Rule.C "a" ] ]
            ()
        in
        Alcotest.check_raises "raises"
          (Grounding.Unsatisfiable_hard_rule "impossible") (fun () ->
            ignore (Grounding.ground db [ impossible ])));
    Alcotest.test_case "trivially satisfied groundings are dropped" `Quick
      (fun () ->
        let db = smokers_db [ ("a", "b") ] in
        let tautology =
          Rule.make ~label:"taut" ~weight:(Some 1.)
            ~body:[ Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ] ]
            ~head:[ Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ] ]
            ()
        in
        let g = Grounding.ground db [ tautology ] in
        Alcotest.(check int) "0 groundings" 0 g.Grounding.groundings);
    Alcotest.test_case "unbound variable is rejected" `Quick (fun () ->
        let db = smokers_db [] in
        let bad =
          Rule.make ~label:"bad" ~weight:(Some 1.)
            ~body:[ Rule.pos "smokes" [ Rule.V "X" ] ]
            ~head:[ Rule.pos "smokes" [ Rule.V "Y" ] ]
            ()
        in
        Alcotest.(check bool)
          "raises" true
          (match Grounding.ground db [ bad ] with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "soft truth values weight the hinge" `Quick (fun () ->
        (* friend(a,b) observed at 0.5: the influence grounding becomes
           max(0, 0.5 + smokes(a) − 1 − smokes(b)) *)
        let db =
          Database.create
            [ Predicate.make ~closed:true "friend" 2; Predicate.make "smokes" 1 ]
          |> Database.observe (Gatom.make "friend" [ "a"; "b" ]) 0.5
        in
        let reward =
          Rule.make ~label:"fact" ~weight:(Some 10.) ~body:[]
            ~head:[ Rule.pos "smokes" [ Rule.C "a" ] ]
            ()
        in
        let discourage_b =
          Rule.make ~label:"disc" ~weight:(Some 1.)
            ~body:[ Rule.pos "smokes" [ Rule.C "b" ] ]
            ~head:[] ()
        in
        (* smokes(b) only needs to reach 0.5 to satisfy the influence rule *)
        let g = Grounding.ground db [ influence_rule; reward; discourage_b ] in
        let r = Grounding.map_inference g in
        let b = Option.get (Grounding.truth_in g r.Admm.solution (Gatom.make "smokes" [ "b" ])) in
        Alcotest.(check bool) "b near 0.5 or lower" true (b <= 0.55));
  ]

let database_tests =
  [
    Alcotest.test_case "closed world truth" `Quick (fun () ->
        let db = smokers_db [ ("a", "b") ] in
        Alcotest.check (close ()) "observed" 1.0
          (Database.truth_closed db (Gatom.make "friend" [ "a"; "b" ]));
        Alcotest.check (close ()) "unobserved" 0.0
          (Database.truth_closed db (Gatom.make "friend" [ "b"; "a" ])));
    Alcotest.test_case "observe validates" `Quick (fun () ->
        let db = smokers_db [] in
        Alcotest.(check bool)
          "bad arity" true
          (match Database.observe (Gatom.make "friend" [ "a" ]) 1.0 db with
          | exception Invalid_argument _ -> true
          | _ -> false);
        Alcotest.(check bool)
          "bad value" true
          (match Database.observe (Gatom.make "friend" [ "a"; "b" ]) 1.5 db with
          | exception Invalid_argument _ -> true
          | _ -> false));
  ]

(* --- weight learning ---------------------------------------------------- *)

let learning_tests =
  [
    Alcotest.test_case "influence weight grows, prior shrinks" `Quick
      (fun () ->
        (* labels say everyone smokes, but the initial weights make the MAP
           state non-smoking: learning must strengthen influence and weaken
           the prior until the MAP matches the labels *)
        let db =
          Database.create
            [ Predicate.make ~closed:true "friend" 2; Predicate.make "smokes" 1 ]
          |> Database.observe_all
               [
                 (Gatom.make "friend" [ "a"; "b" ], 1.0);
                 (Gatom.make "friend" [ "b"; "c" ], 1.0);
                 (* training labels for the open predicate *)
                 (Gatom.make "smokes" [ "a" ], 1.0);
                 (Gatom.make "smokes" [ "b" ], 1.0);
                 (Gatom.make "smokes" [ "c" ], 1.0);
               ]
        in
        let anchor =
          Rule.make ~label:"anchor" ~weight:None ~body:[]
            ~head:[ Rule.pos "smokes" [ Rule.C "a" ] ]
            ()
        in
        let influence =
          Rule.make ~label:"influence" ~weight:(Some 0.1)
            ~body:
              [ Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ];
                Rule.pos "smokes" [ Rule.V "X" ] ]
            ~head:[ Rule.pos "smokes" [ Rule.V "Y" ] ]
            ()
        in
        let prior =
          Rule.make ~label:"prior" ~weight:(Some 2.0)
            ~body:[ Rule.pos "smokes" [ Rule.V "Y" ];
                    Rule.pos "friend" [ Rule.V "X"; Rule.V "Y" ] ]
            ~head:[] ()
        in
        let rules = [ anchor; influence; prior ] in
        let learned = Learn.learn db rules in
        let weight_of label =
          Option.get
            (List.find_map
               (fun (r : Rule.t) ->
                 if String.equal r.Rule.label label then r.Rule.weight else None)
               learned)
        in
        Alcotest.(check bool) "influence grew" true (weight_of "influence" > 0.1);
        Alcotest.(check bool) "prior shrank" true (weight_of "prior" < 2.0);
        (* after learning, MAP inference reproduces the labels *)
        let g = Grounding.ground db learned in
        let r = Grounding.map_inference g in
        List.iter
          (fun p ->
            let truth =
              Option.get (Grounding.truth_in g r.Admm.solution (Gatom.make "smokes" [ p ]))
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s smokes after learning" p)
              true (truth > 0.9))
          [ "a"; "b"; "c" ]);
    Alcotest.test_case "hard rules keep their weightlessness" `Quick (fun () ->
        let db = Database.create [ Predicate.make "p" 1 ] in
        let hard =
          Rule.make ~label:"hard" ~weight:None ~body:[]
            ~head:[ Rule.pos "p" [ Rule.C "a" ] ]
            ()
        in
        match Learn.learn db [ hard ] with
        | [ r ] -> Alcotest.(check bool) "still hard" true (r.Rule.weight = None)
        | _ -> Alcotest.fail "one rule expected");
    Alcotest.test_case "weights never fall below the floor" `Quick (fun () ->
        (* a rule contradicted by every label is driven to the floor, not
           below *)
        let db =
          Database.create [ Predicate.make ~closed:true "q" 1; Predicate.make "p" 1 ]
          |> Database.observe (Gatom.make "q" [ "a" ]) 1.0
          |> Database.observe (Gatom.make "p" [ "a" ]) 0.0
        in
        let wrong =
          Rule.make ~label:"wrong" ~weight:(Some 1.0)
            ~body:[ Rule.pos "q" [ Rule.V "X" ] ]
            ~head:[ Rule.pos "p" [ Rule.V "X" ] ]
            ()
        in
        match Learn.learn db [ wrong ] with
        | [ r ] ->
          Alcotest.(check bool)
            "floored" true
            (match r.Rule.weight with Some w -> w >= 0.0099 && w < 1.0 | None -> false)
        | _ -> Alcotest.fail "one rule expected");
    Alcotest.test_case "observed_assignment reads open observations" `Quick
      (fun () ->
        let db =
          Database.create [ Predicate.make ~closed:true "q" 1; Predicate.make "p" 1 ]
          |> Database.observe (Gatom.make "q" [ "a" ]) 1.0
          |> Database.observe (Gatom.make "p" [ "a" ]) 0.75
        in
        let rule =
          Rule.make ~weight:(Some 1.0)
            ~body:[ Rule.pos "q" [ Rule.V "X" ] ]
            ~head:[ Rule.pos "p" [ Rule.V "X" ] ]
            ()
        in
        let g = Grounding.ground db [ rule ] in
        let obs = Learn.observed_assignment db g in
        Alcotest.(check int) "one var" 1 (Array.length obs);
        Alcotest.(check (float 1e-9)) "label" 0.75 obs.(0));
    Alcotest.test_case "rule_distances sums per rule" `Quick (fun () ->
        let db =
          Database.create [ Predicate.make ~closed:true "q" 1; Predicate.make "p" 1 ]
          |> Database.observe (Gatom.make "q" [ "a" ]) 1.0
          |> Database.observe (Gatom.make "q" [ "b" ]) 1.0
        in
        let rule =
          Rule.make ~weight:(Some 1.0)
            ~body:[ Rule.pos "q" [ Rule.V "X" ] ]
            ~head:[ Rule.pos "p" [ Rule.V "X" ] ]
            ()
        in
        let g = Grounding.ground db [ rule ] in
        (* with p(a)=p(b)=0, both groundings have distance 1 *)
        let d = Grounding.rule_distances g ~num_rules:1 [| 0.; 0. |] in
        Alcotest.(check (float 1e-9)) "2.0" 2.0 d.(0));
  ]

(* --- program text format ------------------------------------------------ *)

let program_text = String.concat "\n"
  [
    "# comment";
    "predicate friend/2 closed";
    "predicate smokes/1";
    "observe friend(a, b) = 1.0";
    "observe smokes(a) = 0.8";
    "rule influence 2.0: friend(X, Y) & smokes(X) -> smokes(Y)";
    "rule prior 0.5: smokes(X) & friend(X, Y) ->";
    "rule anchor hard: -> smokes(a)";
    "rule sq 1.5 squared: smokes(X) & friend(X, Y) -> smokes(X)";
  ]

let program_tests =
  [
    Alcotest.test_case "parse the full feature set" `Quick (fun () ->
        match Program.parse program_text with
        | Error e -> Alcotest.failf "%a" Program.pp_error e
        | Ok p ->
          Alcotest.(check int) "2 predicates" 2 (List.length p.Program.predicates);
          Alcotest.(check int) "2 observations" 2 (List.length p.Program.observations);
          Alcotest.(check int) "4 rules" 4 (List.length p.Program.rules);
          let anchor = List.nth p.Program.rules 2 in
          Alcotest.(check bool) "hard" true (anchor.Rule.weight = None);
          let sq = List.nth p.Program.rules 3 in
          Alcotest.(check bool) "squared" true sq.Rule.squared);
    Alcotest.test_case "roundtrip through pp" `Quick (fun () ->
        match Program.parse program_text with
        | Error e -> Alcotest.failf "%a" Program.pp_error e
        | Ok p -> (
          match Program.parse (Format.asprintf "%a" Program.pp p) with
          | Error e -> Alcotest.failf "reparse: %a" Program.pp_error e
          | Ok p' ->
            Alcotest.(check int)
              "rules survive"
              (List.length p.Program.rules)
              (List.length p'.Program.rules);
            Alcotest.(check int)
              "observations survive"
              (List.length p.Program.observations)
              (List.length p'.Program.observations)));
    Alcotest.test_case "database applies the observations" `Quick (fun () ->
        match Program.parse program_text with
        | Error e -> Alcotest.failf "%a" Program.pp_error e
        | Ok p ->
          let db = Program.database p in
          Alcotest.check (close ()) "friend" 1.0
            (Database.truth_closed db (Gatom.make "friend" [ "a"; "b" ]));
          Alcotest.(check bool)
            "open label" true
            (Database.truth db (Gatom.make "smokes" [ "a" ]) = Some 0.8));
    Alcotest.test_case "errors carry line numbers" `Quick (fun () ->
        let bad = "predicate p/1\nnot a directive\n" in
        match Program.parse bad with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> Alcotest.(check int) "line 2" 2 e.Program.line);
    Alcotest.test_case "bad weight rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "rejected" true
          (Result.is_error (Program.parse "rule r nan-ish!: p(X) -> p(X)\n")));
    Alcotest.test_case "program is solvable end to end" `Quick (fun () ->
        match Program.parse program_text with
        | Error e -> Alcotest.failf "%a" Program.pp_error e
        | Ok p ->
          let db = Program.database p in
          let g = Grounding.ground db p.Program.rules in
          let r = Grounding.map_inference g in
          Alcotest.(check bool) "converged" true r.Admm.converged);
  ]

let admm_options_tests =
  [
    Alcotest.test_case "different rho, same optimum" `Quick (fun () ->
        let build () =
          let m = Hlmrf.create ~num_vars:2 in
          Hlmrf.add_potential m (hinge 3. [ (0, -1.) ] 0.7);
          Hlmrf.add_potential m (linear 1. [ (0, 1.); (1, 1.) ] 0.);
          Hlmrf.add_potential m (hinge 2. [ (1, 1.); (0, -1.) ] 0.1);
          m
        in
        let solve rho =
          (Admm.solve ~options:{ Admm.default_options with Admm.rho } (build ()))
            .Admm.energy
        in
        Alcotest.(check (float 5e-3)) "rho 0.5 vs 2" (solve 0.5) (solve 2.0));
    Alcotest.test_case "max_iter caps the iterations" `Quick (fun () ->
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (hinge 1. [ (0, -1.) ] 0.5);
        let r =
          Admm.solve ~options:{ Admm.default_options with Admm.max_iter = 3 } m
        in
        Alcotest.(check bool) "at most 3" true (r.Admm.iterations <= 3));
    Alcotest.test_case "solver is deterministic" `Quick (fun () ->
        let m = Hlmrf.create ~num_vars:2 in
        Hlmrf.add_potential m (hinge 1. [ (0, 1.); (1, -1.) ] 0.2);
        Hlmrf.add_potential m (linear 0.5 [ (1, 1.) ] 0.);
        let a = Admm.solve m and b = Admm.solve m in
        Alcotest.(check bool) "same solution" true (a.Admm.solution = b.Admm.solution));
  ]

(* --- non-finite numbers ----------------------------------------------------- *)

(* NaN slips through any [x < 0.] range check; each entry point must
   reject NaN and infinities itself, or ADMM runs to its iteration cap and
   reports NaN as an answer. *)
let non_finite = [ Float.nan; Float.infinity; Float.neg_infinity ]

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let smokers_text weight observed =
  String.concat "\n"
    [
      "predicate friend/2 closed";
      "predicate smokes/1";
      "observe friend(anna, bob) = 1.0";
      "observe smokes(bob) = " ^ observed;
      "rule influence " ^ weight ^ ": friend(X, Y) & smokes(X) -> smokes(Y)";
    ]

let non_finite_tests =
  [
    Alcotest.test_case "Rule.make rejects non-finite weights" `Quick (fun () ->
        List.iter
          (fun w ->
            Alcotest.(check bool)
              (Printf.sprintf "weight %g" w) true
              (raises_invalid (fun () ->
                   Rule.make ~weight:(Some w)
                     ~body:[ Rule.pos "p" [ Rule.V "X" ] ]
                     ~head:[] ())))
          non_finite);
    Alcotest.test_case "Database.observe rejects non-finite truth values"
      `Quick (fun () ->
        let db = smokers_db [] in
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Printf.sprintf "value %g" v) true
              (raises_invalid (fun () ->
                   Database.observe (Gatom.make "smokes" [ "a" ]) v db)))
          non_finite);
    Alcotest.test_case "Hlmrf rejects non-finite weights, coefficients, constants"
      `Quick (fun () ->
        List.iter
          (fun x ->
            let m = Hlmrf.create ~num_vars:1 in
            let name what = Printf.sprintf "%s %g" what x in
            Alcotest.(check bool) (name "hinge weight") true
              (raises_invalid (fun () -> Hlmrf.add_potential m (hinge x [ (0, 1.) ] 0.)));
            Alcotest.(check bool) (name "linear weight") true
              (raises_invalid (fun () -> Hlmrf.add_potential m (linear x [ (0, 1.) ] 0.)));
            Alcotest.(check bool) (name "coefficient") true
              (raises_invalid (fun () -> Hlmrf.add_potential m (hinge 1. [ (0, x) ] 0.)));
            Alcotest.(check bool) (name "constant") true
              (raises_invalid (fun () -> Hlmrf.add_potential m (hinge 1. [ (0, 1.) ] x)));
            Alcotest.(check bool) (name "constraint coefficient") true
              (raises_invalid (fun () ->
                   Hlmrf.add_constraint m (Hlmrf.Leq (Linexpr.make [ (0, x) ] 0.))));
            Alcotest.(check bool) (name "constraint constant") true
              (raises_invalid (fun () ->
                   Hlmrf.add_constraint m (Hlmrf.Eq (Linexpr.make [ (0, 1.) ] x))));
            Alcotest.(check int) "nothing was added" 0
              (Hlmrf.num_potentials m + Hlmrf.num_constraints m))
          non_finite);
    Alcotest.test_case "Admm.solve rejects invalid options" `Quick (fun () ->
        (* minimise x over [0,1] *)
        let m = Hlmrf.create ~num_vars:1 in
        Hlmrf.add_potential m (linear 1. [ (0, 1.) ] 0.);
        let d = Admm.default_options in
        let rejects name options =
          Alcotest.(check bool) name true (raises_invalid (fun () -> Admm.solve ~options m))
        in
        List.iter
          (fun rho -> rejects (Printf.sprintf "rho %g" rho) { d with Admm.rho })
          ([ -1.; 0. ] @ non_finite);
        List.iter
          (fun eps ->
            rejects (Printf.sprintf "eps_abs %g" eps) { d with Admm.eps_abs = eps };
            rejects (Printf.sprintf "eps_rel %g" eps) { d with Admm.eps_rel = eps })
          (-1e-4 :: non_finite);
        rejects "max_iter -1" { d with Admm.max_iter = -1 };
        let r =
          Admm.solve ~options:{ d with Admm.eps_abs = 0.; eps_rel = 0.; max_iter = 0 } m
        in
        Alcotest.(check int) "zero tolerances and iterations are valid" 0
          r.Admm.iterations);
    Alcotest.test_case "parse reports the line of a non-finite number" `Quick
      (fun () ->
        let line_of text =
          match Program.parse text with
          | Ok _ -> None
          | Error e -> Some e.Program.line
        in
        Alcotest.(check (option int)) "finite program parses" None
          (line_of (smokers_text "0.2" "1.0"));
        List.iter
          (fun w ->
            Alcotest.(check (option int)) ("rule weight " ^ w) (Some 5)
              (line_of (smokers_text w "1.0")))
          [ "nan"; "inf"; "-inf"; "infinity" ];
        List.iter
          (fun v ->
            Alcotest.(check (option int)) ("truth value " ^ v) (Some 4)
              (line_of (smokers_text "0.2" v)))
          [ "nan"; "inf"; "-nan"; "1.5" ]);
  ]

let () =
  Alcotest.run "psl"
    [
      ("linexpr", linexpr_tests);
      ("admm", admm_tests);
      ("admm-properties", property_tests);
      ("admm-oracle", oracle_tests);
      ("database", database_tests);
      ("grounding", grounding_tests);
      ("learning", learning_tests);
      ("program", program_tests);
      ("admm-options", admm_options_tests);
      ("non-finite", non_finite_tests);
    ]
