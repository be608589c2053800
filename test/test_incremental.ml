(* Differential harness for the incremental objective engine.

   Three layers of evidence that [Core.Incremental] is exact:
   1. golden anchors — the appendix E1 worked example (objective values
      4, 7 1/3, 8, 12) pinned through BOTH evaluators;
   2. qcheck properties — on random problems and random flip sequences the
      incremental state matches the naive [Objective] oracle after every
      flip, with exact [Frac] equality, never floats;
   3. differential regression — the rewired solvers reproduce, bit for bit,
      the selections and objective values captured from the pre-rewrite
      naive implementations on fixed iBench scenarios, and qcheck versions
      of those naive implementations on random problems. *)

open Util
open Core

let frac = Alcotest.testable Frac.pp Frac.equal

let check_breakdown name (expected : Objective.breakdown)
    (got : Objective.breakdown) =
  Alcotest.check frac (name ^ ": unexplained") expected.Objective.unexplained
    got.Objective.unexplained;
  Alcotest.(check int) (name ^ ": errors") expected.Objective.errors
    got.Objective.errors;
  Alcotest.(check int) (name ^ ": size") expected.Objective.size
    got.Objective.size;
  Alcotest.check frac (name ^ ": total") expected.Objective.total
    got.Objective.total

let breakdown_equal (a : Objective.breakdown) (b : Objective.breakdown) =
  Frac.equal a.Objective.unexplained b.Objective.unexplained
  && a.Objective.errors = b.Objective.errors
  && a.Objective.size = b.Objective.size
  && Frac.equal a.Objective.total b.Objective.total

(* --- golden anchor: the appendix's E1 table --------------------------- *)

let appendix_problem () =
  Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    [ Fixtures.theta1; Fixtures.theta3 ]

let appendix_tests =
  [
    Alcotest.test_case "E1 table through both evaluators" `Quick (fun () ->
        let p = appendix_problem () in
        List.iter
          (fun (idx, expected) ->
            let sel = Problem.selection_of_indices p idx in
            let naive = Objective.breakdown p sel in
            let incr = Incremental.breakdown (Incremental.create p sel) in
            let name = Printf.sprintf "|M| = %d" (List.length idx) in
            Alcotest.check frac (name ^ ": naive total") expected
              naive.Objective.total;
            Alcotest.check frac (name ^ ": incremental total") expected
              incr.Objective.total;
            check_breakdown name naive incr)
          [
            ([], Frac.of_int 4);
            ([ 0 ], Frac.make 22 3);
            ([ 1 ], Frac.of_int 8);
            ([ 0; 1 ], Frac.of_int 12);
          ];
        let none =
          Problem.make ~source:Fixtures.instance_i ~j:Fixtures.instance_j []
        in
        check_breakdown "no candidates"
          (Objective.breakdown none [||])
          (Incremental.breakdown (Incremental.create none [||])));
    Alcotest.test_case "E1 reached by flips, not create" `Quick (fun () ->
        (* drive one state through {} → {θ1} → {θ1,θ3} → {θ3} → {} and
           compare against the pinned table at every step *)
        let p = appendix_problem () in
        let st = Incremental.create p [| false; false |] in
        let expect name v =
          Alcotest.check frac name v (Incremental.value st)
        in
        expect "{}" (Frac.of_int 4);
        Incremental.flip st 0;
        expect "{theta1}" (Frac.make 22 3);
        Incremental.flip st 1;
        expect "{theta1,theta3}" (Frac.of_int 12);
        Incremental.flip st 0;
        expect "{theta3}" (Frac.of_int 8);
        Incremental.flip st 1;
        expect "{} again" (Frac.of_int 4));
  ]

(* --- qcheck differential properties ----------------------------------- *)

(* A problem plus a random starting mask and a flip sequence; indices are
   taken modulo the candidate count, so shrinking the raw ints shrinks the
   scenario without invalidating it. *)
let scenario_gen =
  QCheck2.Gen.(
    triple Fixtures.selection_problem_gen (int_range 0 255)
      (list_size (int_range 1 25) (int_range 0 1000)))

let initial_selection p mask =
  Array.init (Problem.num_candidates p) (fun i -> (mask lsr i) land 1 = 1)

let property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"value and breakdown match the oracle after every flip"
      ~count:200 scenario_gen (fun (p, mask, flips) ->
        let st = Incremental.create p (initial_selection p mask) in
        let agrees () =
          let sel = Incremental.selection st in
          Frac.equal (Incremental.value st) (Objective.value p sel)
          && breakdown_equal (Objective.breakdown p sel)
               (Incremental.breakdown st)
        in
        agrees ()
        && List.for_all
             (fun f ->
               Incremental.flip st (f mod Problem.num_candidates p);
               agrees ())
             flips);
    Test.make ~name:"flip_delta is exact and does not mutate" ~count:200
      scenario_gen (fun (p, mask, flips) ->
        let m = Problem.num_candidates p in
        let st = Incremental.create p (initial_selection p mask) in
        List.for_all
          (fun f ->
            let before = Incremental.value st in
            (* probe every candidate against the oracle … *)
            List.for_all
              (fun c ->
                let sel = Incremental.selection st in
                sel.(c) <- not sel.(c);
                let oracle = Frac.sub (Objective.value p sel) before in
                Frac.equal oracle (Incremental.flip_delta st c))
              (List.init m Fun.id)
            (* … then check the probes left no trace and commit one flip *)
            && Frac.equal before (Incremental.value st)
            &&
            let c = f mod m in
            let predicted = Incremental.flip_delta st c in
            Incremental.flip st c;
            Frac.equal (Incremental.value st) (Frac.add before predicted))
          flips);
    Test.make ~name:"flip is an exact involution" ~count:100 scenario_gen
      (fun (p, mask, flips) ->
        let st = Incremental.create p (initial_selection p mask) in
        List.for_all
          (fun f ->
            let c = f mod Problem.num_candidates p in
            let before = Incremental.breakdown st in
            Incremental.flip st c;
            Incremental.flip st c;
            breakdown_equal before (Incremental.breakdown st))
          flips);
    Test.make ~name:"create agrees with the oracle on random masks" ~count:200
      (Gen.pair Fixtures.selection_problem_gen (Gen.int_range 0 255))
      (fun (p, mask) ->
        let sel = initial_selection p mask in
        let st = Incremental.create p sel in
        Frac.equal (Incremental.value st) (Objective.value p sel)
        && breakdown_equal (Objective.breakdown p sel)
             (Incremental.breakdown st));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- differential: rewired solvers vs the naive originals -------------- *)

(* Verbatim copies of the solver loops as they were before the rewiring,
   evaluating with [Objective.value] from scratch on every probe. *)
module Naive = struct
  let greedy p =
    let m = Problem.num_candidates p in
    let sel = Array.make m false in
    let best = Array.make (Problem.num_tuples p) Frac.zero in
    let continue_ = ref true in
    while !continue_ do
      let pick = ref None in
      for c = 0 to m - 1 do
        if not sel.(c) then begin
          let gain = Tuple_oracle.marginal_gain p ~best c in
          if Frac.(Frac.zero < gain) then
            match !pick with
            | Some (_, g) when Frac.(gain <= g) -> ()
            | Some _ | None -> pick := Some (c, gain)
        end
      done;
      match !pick with
      | None -> continue_ := false
      | Some (c, _) ->
        sel.(c) <- true;
        Array.iter
          (fun (ti, d) -> if Frac.(best.(ti) < d) then best.(ti) <- d)
          p.Problem.covers.(c)
    done;
    let improved = ref true in
    let current = ref (Objective.value p sel) in
    while !improved do
      improved := false;
      for c = 0 to m - 1 do
        if sel.(c) then begin
          sel.(c) <- false;
          let v = Objective.value p sel in
          if Frac.(v < !current) then begin
            current := v;
            improved := true
          end
          else sel.(c) <- true
        end
      done
    done;
    sel

  let improve p start =
    let sel = Array.copy start in
    let current = ref (Objective.value p sel) in
    let improved = ref true in
    while !improved do
      improved := false;
      let best_flip = ref None in
      for c = 0 to Array.length sel - 1 do
        sel.(c) <- not sel.(c);
        let v = Objective.value p sel in
        sel.(c) <- not sel.(c);
        if Frac.(v < !current) then
          match !best_flip with
          | Some (_, bv) when Frac.(bv <= v) -> ()
          | Some _ | None -> best_flip := Some (c, v)
      done;
      match !best_flip with
      | None -> ()
      | Some (c, v) ->
        sel.(c) <- not sel.(c);
        current := v;
        improved := true
    done;
    sel

  let anneal ?(options = Anneal.default_options) (p : Problem.t) =
    let m = Problem.num_candidates p in
    if m = 0 then [||]
    else begin
      let rng = Random.State.make [| options.Anneal.seed |] in
      let sel = Array.make m false in
      let current = ref (Objective.value p sel) in
      let best = Array.copy sel in
      let best_v = ref !current in
      let temperature = ref options.Anneal.initial_temperature in
      for _ = 1 to options.Anneal.iterations do
        let c = Random.State.int rng m in
        sel.(c) <- not sel.(c);
        let v = Objective.value p sel in
        let delta = Frac.to_float (Frac.sub v !current) in
        let accept =
          delta <= 0.
          || Random.State.float rng 1.
             < exp (-.delta /. Float.max 1e-9 !temperature)
        in
        if accept then begin
          current := v;
          if Frac.(v < !best_v) then begin
            best_v := v;
            Array.blit sel 0 best 0 m
          end
        end
        else sel.(c) <- not sel.(c);
        temperature := !temperature *. options.Anneal.cooling
      done;
      best
    end
end

let solver_property_tests =
  let open QCheck2 in
  [
    Test.make ~name:"rewired greedy = naive greedy (selection, not just value)"
      ~count:100 Fixtures.selection_problem_gen (fun p ->
        Greedy.solve p = Naive.greedy p);
    Test.make ~name:"rewired local-search improve = naive improve" ~count:100
      (Gen.pair Fixtures.selection_problem_gen (Gen.int_range 0 255))
      (fun (p, mask) ->
        let start = initial_selection p mask in
        Local_search.improve p start = Naive.improve p start);
    Test.make ~name:"rewired anneal = naive anneal (same rng consumption)"
      ~count:60 Fixtures.selection_problem_gen (fun p ->
        Anneal.solve p = Naive.anneal p);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- the lifted view against the per-tuple oracle ------------------------ *)

(* Problems drawn by their support patterns (many tuples per support, some
   uncoverable) and the [Fixtures] selection problems, with a random mask
   and flip sequence as above. *)
let lifted_gen =
  QCheck2.Gen.(
    triple
      (oneof [ Fixtures.support_problem_gen; Fixtures.selection_problem_gen ])
      (int_range 0 255)
      (list_size (int_range 1 25) (int_range 0 1000)))

let print_lifted (p, mask, flips) =
  Printf.sprintf "m=%d tuples=%d groups=[%s] uncoverable=%d mask=%d flips=[%s]"
    (Problem.num_candidates p) (Problem.num_tuples p)
    (String.concat ";" (Array.to_list (Array.map string_of_int p.Problem.group_size)))
    p.Problem.uncoverable mask
    (String.concat ";" (List.map string_of_int flips))

(* Each tuple's support read off [covers], candidates ascending. *)
let tuple_supports (p : Problem.t) =
  let support = Array.make (Problem.num_tuples p) [] in
  for c = Problem.num_candidates p - 1 downto 0 do
    Array.iter (fun (ti, d) -> support.(ti) <- (c, d) :: support.(ti)) p.Problem.covers.(c)
  done;
  support

let support_equal = List.equal (fun (c, d) (c', d') -> c = c' && Frac.equal d d')

(* The groups the problem should hold: the distinct non-empty supports in
   the order of their first tuple, each with its tuple count. *)
let expected_groups p =
  let groups = ref [] in
  Array.iter
    (function
      | [] -> ()
      | sup -> (
        match List.find_opt (fun (s, _) -> support_equal s sup) !groups with
        | Some (_, k) -> incr k
        | None -> groups := (sup, ref 1) :: !groups))
    (tuple_supports p);
  List.rev_map (fun (s, k) -> (s, !k)) !groups

(* Problems that split into independent components: disjoint unions of two
   to four blocks over their own tuples, each of one to seven candidates
   drawn from fewer kinds (a kind is a support pattern over the block's
   tuples and a cost of 0 or 1 errors and size), so duplicate candidates
   and equal costs are common. The candidates of all blocks are shuffled
   together, so the components interleave in candidate order. *)
let block_gen =
  let open QCheck2.Gen in
  let* k = int_range 1 7 in
  let* kinds = int_range 1 k in
  let degree = oneofl [ Frac.make 1 2; Frac.one ] in
  let* patterns =
    list_size (int_range 1 3) (pair (list_repeat kinds (opt degree)) (int_range 1 4))
  in
  let* costs = list_repeat kinds (pair (int_range 0 1) (int_range 0 1)) in
  let* members = list_repeat k (int_range 0 (kinds - 1)) in
  let tuple_pattern =
    List.concat (List.map (fun (pattern, n) -> List.init n (fun _ -> pattern)) patterns)
  in
  let candidate kind =
    let rows =
      List.concat
        (List.mapi
           (fun ti pattern ->
             match List.nth pattern kind with Some d -> [ (ti, d) ] | None -> [])
           tuple_pattern)
    in
    (rows, List.nth costs kind)
  in
  return (List.length tuple_pattern, List.map candidate members)

let component_problem_gen =
  let open QCheck2.Gen in
  let* blocks = list_size (int_range 2 4) block_gen in
  let* w1 = int_range 1 3 in
  let n, offset_blocks =
    List.fold_left_map
      (fun offset (n, cands) ->
        ( offset + n,
          List.map
            (fun (rows, cost) -> (List.map (fun (ti, d) -> (ti + offset, d)) rows, cost))
            cands ))
      0 blocks
  in
  let* cands = shuffle_l (List.concat offset_blocks) in
  return (Fixtures.synthetic_problem ~w1 ~n cands)

(* Each candidate's label in the partition into sets linked by shared
   tuples: the least candidate of its set, by propagating the least label
   over every linked pair until it settles *)
let component_labels (p : Problem.t) =
  let m = Problem.num_candidates p in
  let tuples c = List.map fst (Array.to_list p.Problem.covers.(c)) in
  let linked a b = List.exists (fun t -> List.mem t (tuples b)) (tuples a) in
  let label = Array.init m Fun.id in
  let changed = ref true in
  while !changed do
    changed := false;
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        if label.(b) < label.(a) && linked a b then begin
          label.(a) <- label.(b);
          changed := true
        end
      done
    done
  done;
  label

let largest_component p =
  let label = component_labels p in
  let size = Array.make (Array.length label) 0 in
  Array.iter (fun l -> size.(l) <- size.(l) + 1) label;
  Array.fold_left max 0 size

let print_components p =
  Printf.sprintf "m=%d largest component=%d tuples=%d\n%s" (Problem.num_candidates p)
    (largest_component p) (Problem.num_tuples p)
    (String.concat "\n"
       (List.init (Problem.num_candidates p) (fun c ->
            Printf.sprintf "  %d: cost %s covers [%s]" c
              (Frac.to_string p.Problem.cand_cost.(c))
              (String.concat "; "
                 (Array.to_list
                    (Array.map
                       (fun (ti, d) -> Printf.sprintf "%d@%s" ti (Frac.to_string d))
                       p.Problem.covers.(c)))))))

(* Both families above, with a random mask over up to 30 candidates *)
let decomposition_gen =
  QCheck2.Gen.(
    pair
      (oneof [ component_problem_gen; map (fun (p, _, _) -> p) lifted_gen ])
      (int_bound ((1 lsl 30) - 1)))

let print_decomposition (p, mask) = Printf.sprintf "mask=%d %s" mask (print_components p)

let lifted_tests =
  let open QCheck2 in
  [
    Test.make ~name:"groups partition the coverable tuples by support" ~count:500
      ~print:print_lifted lifted_gen (fun (p, _, _) ->
        let expected = expected_groups p in
        let n_groups = Problem.num_groups p in
        (* each group's support, read back off the lifted covers *)
        let group_support = Array.make n_groups [] in
        for c = Problem.num_candidates p - 1 downto 0 do
          Array.iter
            (fun (g, d) -> group_support.(g) <- (c, d) :: group_support.(g))
            p.Problem.group_covers.(c)
        done;
        let ascending entries =
          let gs = Array.to_list (Array.map fst entries) in
          List.sort_uniq compare gs = gs
        in
        let uncoverable =
          Array.fold_left
            (fun n sup -> match sup with [] -> n + 1 | _ :: _ -> n)
            0 (tuple_supports p)
        in
        List.length expected = n_groups
        && List.for_all2
             (fun (sup, k) (g_sup, g_k) -> support_equal sup g_sup && k = g_k)
             expected
             (List.combine (Array.to_list group_support) (Array.to_list p.Problem.group_size))
        && Array.for_all ascending p.Problem.group_covers
        && p.Problem.uncoverable = uncoverable
        && Array.fold_left ( + ) p.Problem.uncoverable p.Problem.group_size
           = Problem.num_tuples p);
    Test.make ~name:"values, breakdowns and bounds equal the per-tuple ones" ~count:500
      ~print:print_lifted lifted_gen (fun (p, mask, flips) ->
        let m = Problem.num_candidates p in
        List.for_all
          (fun f ->
            let sel = initial_selection p (mask lxor f) in
            breakdown_equal (Tuple_oracle.breakdown p sel) (Objective.breakdown p sel)
            && breakdown_equal (Tuple_oracle.breakdown p sel)
                 (Incremental.breakdown (Incremental.create p sel)))
          (0 :: flips)
        && Frac.equal (Tuple_oracle.lower_bound p) (Objective.lower_bound p)
        && Frac.equal (Tuple_oracle.value p (Array.make m false)) (Objective.empty_value p));
    Test.make ~name:"every flip_delta equals the per-tuple one" ~count:500
      ~print:print_lifted lifted_gen (fun (p, mask, flips) ->
        let m = Problem.num_candidates p in
        let sel = initial_selection p mask in
        let lifted = Incremental.create p sel and tuple = Tuple_oracle.create p sel in
        List.for_all
          (fun f ->
            List.for_all
              (fun c ->
                Frac.equal (Tuple_oracle.flip_delta tuple c)
                  (Incremental.flip_delta lifted c))
              (List.init m Fun.id)
            &&
            let c = f mod m in
            Incremental.flip lifted c;
            Tuple_oracle.flip tuple c;
            Frac.equal (Tuple_oracle.state_value tuple) (Incremental.value lifted))
          flips);
    Test.make ~name:"greedy, local search and exact select as per tuple" ~count:500
      ~print:print_lifted lifted_gen (fun (p, mask, _) ->
        let start = initial_selection p mask in
        Greedy.solve p = Tuple_oracle.greedy p
        && Local_search.improve p start = Tuple_oracle.improve p start
        && Exact.solve p = Tuple_oracle.exact p);
    Test.make ~name:"exact per component selects as the global search" ~count:500
      ~print:print_components component_problem_gen (fun p ->
        Exact.solve ~max_candidates:(largest_component p) p = Tuple_oracle.exact p);
    Test.make ~name:"components are the sets linked by shared tuples" ~count:500
      ~print:print_decomposition decomposition_gen (fun (p, _) ->
        let label = component_labels p in
        let cands = List.init (Problem.num_candidates p) Fun.id in
        let expected =
          List.filter_map
            (fun l ->
              if label.(l) = l then Some (List.filter (fun c -> label.(c) = l) cands)
              else None)
            cands
        in
        Array.to_list (Array.map Array.to_list (Problem.components p)) = expected);
    Test.make ~name:"F splits over the component sub-problems" ~count:500
      ~print:print_decomposition decomposition_gen (fun (p, mask) ->
        let sel = initial_selection p mask in
        let split =
          Array.fold_left
            (fun acc cs ->
              let sub = Problem.restrict p cs in
              Frac.add acc
                (Frac.sub
                   (Objective.value sub (Array.map (Array.get sel) cs))
                   (Objective.empty_value sub)))
            (Tuple_oracle.value p (Array.make (Problem.num_candidates p) false))
            (Problem.components p)
        in
        Frac.equal (Tuple_oracle.value p sel) split);
    Test.make ~name:"a component sub-problem covers every tuple" ~count:500
      ~print:print_decomposition decomposition_gen (fun (p, _) ->
        Array.for_all
          (fun cs ->
            let sub = Problem.restrict p cs in
            sub.Problem.uncoverable = 0
            && Array.fold_left ( + ) 0 sub.Problem.group_size = Problem.num_tuples sub
            && Array.for_all2
                 (fun c cost -> Frac.equal p.Problem.cand_cost.(c) cost)
                 cs sub.Problem.cand_cost)
          (Problem.components p));
    Test.make ~name:"restricting to every candidate keeps the digest" ~count:500
      ~print:print_decomposition decomposition_gen (fun (p, _) ->
        let everyone (q : Problem.t) = Array.init (Problem.num_candidates q) Fun.id in
        let keeps q = Problem.digest (Problem.restrict q (everyone q)) = Problem.digest q in
        (* a one-component problem of no uncoverable tuple: [p], when it is
           one, and each component's sub-problem *)
        (Array.length (Problem.components p) <> 1 || p.Problem.uncoverable > 0 || keeps p)
        && Array.for_all (fun cs -> keeps (Problem.restrict p cs)) (Problem.components p));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- golden regression on fixed iBench scenarios ------------------------ *)

let regression_tests =
  List.map
    (fun g ->
      Alcotest.test_case g.Fixtures.g_name `Quick (fun () ->
          let p = Fixtures.golden_problem g in
          let check name expected sel =
            Alcotest.(check (list int))
              (name ^ " selection") expected
              (Problem.indices_of_selection sel);
            Alcotest.check frac (name ^ " objective") g.Fixtures.g_objective
              (Objective.value p sel);
            Alcotest.check frac
              (name ^ " incremental objective")
              g.Fixtures.g_objective
              (Incremental.value (Incremental.create p sel))
          in
          check "greedy" g.Fixtures.g_greedy (Greedy.solve p);
          check "local-search" g.Fixtures.g_local
            (Local_search.solve ~restarts:2 ~seed:0 p);
          check "anneal" g.Fixtures.g_anneal (Anneal.solve p)))
    Fixtures.golden_scenarios

let () =
  Alcotest.run "incremental"
    [
      ("appendix-anchor", appendix_tests);
      ("differential-properties", property_tests);
      ("solver-differential", solver_property_tests);
      ("lifted", lifted_tests);
      ("golden-regression", regression_tests);
    ]
