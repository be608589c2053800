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

let non_finite_tests =
  [
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
  ]

let () =
  Alcotest.run "psl"
    [
      ("linexpr", linexpr_tests);
      ("admm", admm_tests);
      ("admm-properties", property_tests);
      ("admm-oracle", oracle_tests);
      ("admm-options", admm_options_tests);
      ("non-finite", non_finite_tests);
    ]
