open Relational
open Logic
open Util
open Core

type ctx = {
  case : Case.t;
  problem : Problem.t option Lazy.t;
}

let make_ctx ?cache case =
  {
    case;
    problem =
      lazy
        (Option.map (Case.problem ?cache) (Case.end_to_end case.Case.payload));
  }

type verdict =
  | Pass
  | Skip
  | Fail of string

type t = {
  name : string;
  doc : string;
  check : ctx -> verdict;
}

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

(* Auxiliary randomness, a pure function of (case seed, oracle salt). *)
let rng_of ctx salt = Random.State.make [| 0x0f4c; ctx.case.Case.seed; salt |]

(* Selections to probe: exhaustive up to 6 candidates, 40 random masks
   beyond. Always includes the empty and the full selection. *)
let probe_selections rng m =
  if m <= 6 then
    List.init (1 lsl m) (fun mask ->
        Array.init m (fun i -> (mask lsr i) land 1 = 1))
  else
    Array.make m false :: Array.make m true
    :: List.init 38 (fun _ -> Array.init m (fun _ -> Random.State.bool rng))

let selection_to_string sel =
  String.concat ""
    (Array.to_list (Array.map (fun b -> if b then "1" else "0") sel))

(* --- eq4-eq9: Eq. 4 vs the general evaluator on full tgds ------------- *)

(* Eq. 4, the objective Eq. 9 degenerates to when every candidate is full:
   [w1·|J \ covered(M)| + Σ_{θ∈M} cost(θ)], where a tuple is covered (at
   degree 1) or not at all. [tweak] is a hook for fault injection: the real
   oracle adds nothing to a candidate's cost; the broken variant charges
   candidates covering at least two tuples one more unit, simulating a
   cost-accounting bug. *)
let eq4_value ~tweak (p : Problem.t) sel =
  let covered = Array.make (Problem.num_tuples p) false in
  let cost = ref Frac.zero in
  Array.iteri
    (fun c selected ->
      if selected then begin
        Array.iter
          (fun (ti, d) -> if Frac.equal d Frac.one then covered.(ti) <- true)
          p.Problem.covers.(c);
        cost := Frac.add !cost (Frac.add p.Problem.cand_cost.(c) (tweak p c))
      end)
    sel;
  let uncovered = Array.fold_left (fun n b -> if b then n else n + 1) 0 covered in
  Frac.add (Frac.of_int (p.Problem.weights.Problem.w_unexplained * uncovered)) !cost

let brute_force_min p =
  let n = Problem.num_candidates p in
  List.init (1 lsl n) (fun mask ->
      Objective.value p (Array.init n (fun i -> (mask lsr i) land 1 = 1)))
  |> List.fold_left Frac.min (Objective.empty_value p)

let eq4_check ~tweak ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m when not (List.for_all Tgd.is_full m.Case.candidates) ->
    Skip
  | Case.Mapping _ -> (
    let p = Option.get (Lazy.force ctx.problem) in
    let rng = rng_of ctx 1 in
    let n = Problem.num_candidates p in
    let mismatch =
      List.find_map
        (fun sel ->
          let v4 = eq4_value ~tweak p sel in
          let v9 = Objective.value p sel in
          if Frac.equal v4 v9 then None
          else
            Some
              (Format.asprintf "Eq.4 gives %a, Eq.9 gives %a on %s" Frac.pp v4
                 Frac.pp v9 (selection_to_string sel)))
        (probe_selections rng n)
    in
    match mismatch with
    | Some msg -> Fail msg
    | None ->
      if n <= 8 then
        let v_brute = brute_force_min p in
        let v_exact = Objective.value p (Exact.solve p) in
        if Frac.equal v_brute v_exact then Pass
        else
          Fail
            (Format.asprintf
               "the minimum over all selections is %a but Exact.solve finds %a"
               Frac.pp v_brute Frac.pp v_exact)
      else Pass)

let check_eq4_eq9 = eq4_check ~tweak:(fun _ _ -> Frac.zero)

(* --- solver-order: exact optimum bounds every registered solver -------- *)

let check_solver_order ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping _ ->
    let p = Option.get (Lazy.force ctx.problem) in
    if Problem.num_candidates p > 8 || Problem.num_tuples p > 40 then Skip
    else
      let seed = ctx.case.Case.seed land 0xFFFFFF in
      (* every solver in the registry, so a newly registered solver is
         bounded by the exact optimum without touching this oracle *)
      let values =
        List.map
          (fun impl ->
            ( Solver.name impl,
              Objective.value p (Solver.solve impl ~seed p).Solver.selection ))
          Solver.all
      in
      let v name = List.assoc name values in
      let v_exact = v "exact" in
      let v_empty = Objective.empty_value p in
      let checks =
        List.filter_map
          (fun (name, value) ->
            if String.equal name "exact" then None
            else Some (Printf.sprintf "exact <= %s" name, v_exact, value))
          values
        @ [
            ("local <= greedy", v "local", v "greedy");
            ("greedy <= F({})", v "greedy", v_empty);
            ("anneal <= F({})", v "anneal", v_empty);
          ]
      in
      (match
         List.find_map
           (fun (name, lo, hi) ->
             if Frac.(lo <= hi) then None
             else
               Some
                 (Format.asprintf "%s violated: %a > %a" name Frac.pp lo
                    Frac.pp hi))
           checks
       with
      | Some msg -> Fail msg
      | None -> Pass)

(* --- setcover: the Theorem 1 closed form ------------------------------- *)

(* [slope] is the coefficient of the uncovered-element term; the proof says
   [m + 1]. The [closed-form] fault lowers it to [m]. *)
let setcover_check ~slope ctx =
  match ctx.case.Case.payload with
  | Case.Mapping _ | Case.Multihop _ -> Skip
  | Case.Setcover inst -> (
    match Setcover.validate inst with
    | Error e -> failf "invalid SET COVER instance: %s" e
    | Ok () ->
      let red = Setcover.reduce inst in
      let n = Array.length red.Setcover.set_names in
      let rng = rng_of ctx 4 in
      let universe =
        List.sort_uniq String.compare inst.Setcover.universe
      in
      let mismatch =
        List.find_map
          (fun sel ->
            let selected = Setcover.cover_of_selection red sel in
            let covered =
              List.concat_map
                (fun (name, elems) ->
                  if List.mem name selected then elems else [])
                inst.Setcover.sets
              |> List.sort_uniq String.compare
            in
            let expected =
              Frac.of_int
                ((slope red.Setcover.m
                 * (List.length universe - List.length covered))
                + (2 * List.length selected))
            in
            let got = Objective.value red.Setcover.problem sel in
            if Frac.equal expected got then None
            else
              Some
                (Format.asprintf
                   "closed form predicts %a, Eq.9 evaluator gives %a for \
                    selection %s"
                   Frac.pp expected Frac.pp got (selection_to_string sel)))
          (probe_selections rng n)
      in
      (match mismatch with Some msg -> Fail msg | None -> Pass))

let check_setcover = setcover_check ~slope:(fun m -> m + 1)

(* --- chase-determinism: permutation invariance and internal checks ----- *)

let triggers_equal (a : Chase.Trigger.t) (b : Chase.Trigger.t) =
  a.Chase.Trigger.tgd_index = b.Chase.Trigger.tgd_index
  && Subst.equal (Chase.Trigger.subst a) (Chase.Trigger.subst b)
  && List.equal Tuple.equal a.Chase.Trigger.tuples b.Chase.Trigger.tuples
  && Value.Set.equal (Chase.Trigger.nulls a) (Chase.Trigger.nulls b)

let results_equal (a : Chase.result) (b : Chase.result) =
  Instance.equal a.Chase.solution b.Chase.solution
  && List.length a.Chase.triggers = List.length b.Chase.triggers
  && List.for_all2 triggers_equal a.Chase.triggers b.Chase.triggers

let check_chase_determinism ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let rng = rng_of ctx 6 in
    let source2 =
      Instance.of_tuples
        (Ibench.Generator.shuffle rng (Instance.tuples m.Case.source))
    in
    if not (Instance.equal m.Case.source source2) then
      Fail "instances are not canonical under tuple permutation"
    else
      let r1 = Chase.run m.Case.source m.Case.candidates in
      let r2 = Chase.run source2 m.Case.candidates in
      let r3 =
        Chase.run
          ~index:(Cq.Index.build m.Case.source)
          m.Case.source m.Case.candidates
      in
      if not (results_equal r1 r2) then
        Fail "chase differs after permuting the source tuples"
      else if not (results_equal r1 r3) then
        Fail "chase differs with a prebuilt index"
      else (
        match Chase.check_result ~source:m.Case.source r1 with
        | Error msg -> failf "chase invariant violated: %s" msg
        | Ok () ->
          let n = List.length m.Case.candidates in
          if n = 0 || n > 10 then Pass
          else
            let order = Ibench.Generator.shuffle rng (List.init n Fun.id) in
            let permuted =
              List.map (fun i -> List.nth m.Case.candidates i) order
            in
            let p = Option.get (Lazy.force ctx.problem) in
            let p' =
              Problem.make ~weights:m.Case.weights ~source:m.Case.source
                ~j:m.Case.j permuted
            in
            let order = Array.of_list order in
            let mismatch =
              List.find_map
                (fun sel ->
                  let sel' = Array.init n (fun k -> sel.(order.(k))) in
                  let v = Objective.value p sel in
                  let v' = Objective.value p' sel' in
                  if Frac.equal v v' then None
                  else
                    Some
                      (Format.asprintf
                         "objective not invariant under candidate \
                          permutation: %a vs %a on %s"
                         Frac.pp v Frac.pp v' (selection_to_string sel)))
                (probe_selections rng n)
            in
            (match mismatch with Some msg -> Fail msg | None -> Pass))

(* --- core-solution: the core is a minimal homomorphic retract ----------- *)

let check_core_solution ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let jc = (Chase.run m.Case.source m.Case.candidates).Chase.solution in
    (* the endomorphism search is worst-case exponential in a
       null-connected component; bound the instance like solver-order
       bounds the problem *)
    if Instance.cardinal jc > 40 then Skip
    else
      let c = Chase.Core_solution.core jc in
      if not (Instance.subset c jc) then
        Fail "core is not a sub-instance of the chased target"
      else if
        not
          (List.for_all
             (fun t -> (not (Tuple.is_ground t)) || Instance.mem t c)
             (Instance.tuples jc))
      then Fail "core dropped a ground tuple"
      else if not (Chase.Core_solution.hom_exists ~from:jc ~into:c) then
        Fail "no homomorphism from the chased target into its core"
      else if not (Chase.Core_solution.hom_exists ~from:c ~into:jc) then
        Fail "no homomorphism from the core into the chased target"
      else if not (Instance.equal (Chase.Core_solution.core c) c) then
        Fail "core is not idempotent"
      else if not (Chase.Core_solution.is_core c) then
        Fail "core still admits a proper endomorphism"
      else if List.length m.Case.candidates > 6 then Pass
      else
        (* coring can only retract chase tuples away, never add them *)
        let produced stats =
          Array.fold_left (fun n s -> n + s.Cover.produced) 0 stats
        in
        let plain =
          produced
            (Cover.analyze ~source:m.Case.source ~j:m.Case.j m.Case.candidates)
        in
        let cored =
          produced
            (Cover.analyze ~core:true ~source:m.Case.source ~j:m.Case.j
               m.Case.candidates)
        in
        if cored <= plain then Pass
        else
          failf "coring grew K_M: %d produced tuples uncored, %d cored" plain
            cored

(* --- algebra: the homomorphism checkers and the mapping algebra --------- *)

let take n l = List.filteri (fun i _ -> i < n) l

let ground_tuples inst =
  List.filter Tuple.is_ground (Instance.tuples inst) |> List.sort compare

(* On single-mapping cases the oracle holds the checkers to their semantic
   contracts on the case's own data — a syntactically-confused [implies] or
   [contained_in] (the frozen-constant capture bug) shows up as a verdict
   the instance refutes. On multi-hop cases it holds composition to its
   defining property: chasing once with the composed mapping is sound
   against chasing hop by hop with identical ground facts, and fully
   hom-equivalent whenever every hop before the last is full (the fragment
   where first-order composition is complete). Three-hop chains are held to
   associativity as far as {!Algebra.associative} states it: equivalence
   when the first two hops are full, soundness of both bracketings
   otherwise. *)
let check_algebra ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ -> Skip
  | Case.Mapping m ->
    let cands = take 4 m.Case.candidates in
    let indexed = List.mapi (fun i c -> (i, c)) cands in
    let pairs =
      List.concat_map
        (fun (i, a) ->
          List.filter_map
            (fun (j, b) -> if i = j then None else Some (a, b))
            indexed)
        indexed
    in
    let implication_unsound =
      List.find_map
        (fun ((a : Tgd.t), (b : Tgd.t)) ->
          if not (Chase.Implication.implies a b) then None
          else
            (* (I, chase(I, [a])) satisfies a by universality, so a ⊨ b
               promises it satisfies b too *)
            let target = (Chase.run m.Case.source [ a ]).Chase.solution in
            if Chase.satisfies ~source:m.Case.source ~target b then None
            else
              Some
                (Printf.sprintf
                   "implies %s %s holds but (I, chase(I, [%s])) violates %s"
                   a.Tgd.label b.Tgd.label a.Tgd.label b.Tgd.label))
        pairs
    in
    (match implication_unsound with
    | Some msg -> Fail msg
    | None -> (
      let containment_unsound =
        List.find_map
          (fun ((a : Tgd.t), (b : Tgd.t)) ->
            if not (Containment.contained_in a.Tgd.body b.Tgd.body) then None
            else if
              Cq.holds m.Case.source a.Tgd.body
              && not (Cq.holds m.Case.source b.Tgd.body)
            then
              Some
                (Printf.sprintf
                   "body(%s) ⊆ body(%s) as boolean queries, but only the \
                    former holds on I"
                   a.Tgd.label b.Tgd.label)
            else None)
          pairs
      in
      match containment_unsound with
      | Some msg -> Fail msg
      | None -> (
        let minimize_broken =
          List.find_map
            (fun (c : Tgd.t) ->
              let small = Chase.Implication.minimize_tgd c in
              if not (Chase.Implication.equivalent small c) then
                Some
                  (Printf.sprintf "minimize_tgd changed the meaning of %s"
                     c.Tgd.label)
              else
                match c.Tgd.body with
                | [] -> None
                | a :: _ ->
                  (* duplicating an atom never changes the minimal core *)
                  let minimized = Containment.minimize (c.Tgd.body @ [ a ]) in
                  if Containment.equivalent minimized c.Tgd.body then None
                  else
                    Some
                      (Printf.sprintf
                         "Containment.minimize broke a duplicated body of %s"
                         c.Tgd.label))
            cands
        in
        match minimize_broken with Some msg -> Fail msg | None -> Pass)))
  | Case.Multihop mh ->
    if mh.Case.hops = [] then Skip
    else
      let maps = List.map fst mh.Case.hops in
      let k_hop = Algebra.chase_through mh.Case.initial maps in
      if
        Instance.cardinal k_hop > 40
        || Case.num_tuples ctx.case > 60
        || Case.num_candidates ctx.case > 12
      then Skip
      else
        let composed = Algebra.compose_all maps in
        let k_comp = Algebra.chase_through mh.Case.initial [ composed ] in
        (* Completeness of first-order composition is only promised when no
           intermediate existential can be consumed downstream: a hop-1 null
           shared by two hop-2 facts is a correlation no tgd set expresses
           (that is SO-tgd territory, Fagin et al.), so the hop-by-hop chase
           need not map into the composed one. Ground facts are exempt —
           each comes from a single derivation tree, which unfolding does
           capture — so their sets must always agree. *)
        let intermediate_full =
          match List.rev maps with
          | [] -> true
          | _last :: earlier -> List.for_all (List.for_all Tgd.is_full) earlier
        in
        if not (Chase.Core_solution.hom_exists ~from:k_comp ~into:k_hop) then
          Fail "no homomorphism from the composed chase into the hop-by-hop one"
        else if
          intermediate_full
          && not (Chase.Core_solution.hom_exists ~from:k_hop ~into:k_comp)
        then
          Fail
            "intermediate hops are full but the hop-by-hop chase does not \
             map into the composed one"
        else if ground_tuples k_comp <> ground_tuples k_hop then
          failf "ground facts differ: %d composed vs %d hop-by-hop"
            (List.length (ground_tuples k_comp))
            (List.length (ground_tuples k_hop))
        else if not (Algebra.contained_in composed composed) then
          Fail "containment is not reflexive on the composed mapping"
        else (
          match maps with
          | [ m1; m2; m3 ] ->
            if Algebra.associative m1 m2 m3 then Pass
            else Fail "composition breaks its associativity contract"
          | _ -> Pass)

(* --- registry ----------------------------------------------------------- *)

let all =
  [
    {
      name = "eq4-eq9";
      doc = "Eq. 4 agrees with the Eq. 9 evaluator on full tgds";
      check = check_eq4_eq9;
    };
    {
      name = "solver-order";
      doc = "exact bounds every registered solver; local <= greedy <= F({})";
      check = check_solver_order;
    };
    {
      name = "setcover";
      doc = "Theorem 1 closed form equals the evaluator on reductions";
      check = check_setcover;
    };
    {
      name = "chase-determinism";
      doc = "chase invariant under permutation, indexing, and self-checks";
      check = check_chase_determinism;
    };
    {
      name = "core-solution";
      doc = "the core is a sub-instance, equivalent both ways, idempotent";
      check = check_core_solution;
    };
    {
      name = "algebra";
      doc =
        "implication/containment verdicts hold semantically; composed chase \
         sound vs hop-by-hop, exact on full intermediate hops";
      check = check_algebra;
    };
  ]

let names = List.map (fun o -> o.name) all

let find name = List.find_opt (fun o -> o.name = name) all

let run ?cache o case =
  match o.check (make_ctx ?cache case) with
  | verdict -> verdict
  | exception e ->
    Fail (Printf.sprintf "exception: %s" (Printexc.to_string e))

let is_failure ?cache o case =
  match run ?cache o case with Fail _ -> true | Pass | Skip -> false

let faults =
  [
    ( "multi-cover",
      {
        name = "eq4-eq9";
        doc = "BROKEN: charges Eq. 4 one more unit per multi-cover candidate";
        check =
          eq4_check ~tweak:(fun p c ->
              if Array.length p.Problem.covers.(c) >= 2 then Frac.one
              else Frac.zero);
      } );
    ( "closed-form",
      {
        name = "setcover";
        doc = "BROKEN: drops the +1 from the closed-form slope";
        check = setcover_check ~slope:(fun m -> m);
      } );
  ]
