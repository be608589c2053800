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

let breakdown_equal (a : Objective.breakdown) (b : Objective.breakdown) =
  Frac.equal a.Objective.unexplained b.Objective.unexplained
  && a.Objective.errors = b.Objective.errors
  && a.Objective.size = b.Objective.size
  && Frac.equal a.Objective.total b.Objective.total

let selection_to_string sel =
  String.concat ""
    (Array.to_list (Array.map (fun b -> if b then "1" else "0") sel))

(* --- eq4-eq9: the Full fast path vs the general evaluator -------------- *)

let check_eq4_eq9 ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m when not (List.for_all Tgd.is_full m.Case.candidates) ->
    Skip
  | Case.Mapping _ -> (
    let p = Option.get (Lazy.force ctx.problem) in
    match Full.of_problem p with
    | Error e -> failf "Full.of_problem rejected a full-tgd problem: %s" e
    | Ok fp ->
      let rng = rng_of ctx 1 in
      let n = Problem.num_candidates p in
      let mismatch =
        List.find_map
          (fun sel ->
            let v4 = Full.value fp sel in
            let v9 = Objective.value p sel in
            if Frac.equal v4 v9 then None
            else
              Some
                (Format.asprintf "Eq.4 gives %a, Eq.9 gives %a on %s" Frac.pp
                   v4 Frac.pp v9 (selection_to_string sel)))
          (probe_selections rng n)
      in
      (match mismatch with
      | Some msg -> Fail msg
      | None ->
        if n <= 8 then
          let v_full = Objective.value p (Full.exact fp) in
          let v_gen = Objective.value p (Exact.solve p) in
          if Frac.equal v_full v_gen then Pass
          else
            Fail
              (Format.asprintf "Full.exact finds %a but Exact.solve finds %a"
                 Frac.pp v_full Frac.pp v_gen)
        else Pass))

(* --- incremental: delta engine vs the naive evaluator ------------------ *)

(* [expected_tweak] is a hook for fault injection: the real oracle adds
   nothing; the broken variant perturbs the expected delta of candidates
   covering at least two tuples, simulating a delta-computation bug. *)
let incremental_check ~expected_tweak ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping _ ->
    let p = Option.get (Lazy.force ctx.problem) in
    let m = Problem.num_candidates p in
    let rng = rng_of ctx 2 in
    let sel = Array.init m (fun _ -> Random.State.bool rng) in
    let st = Incremental.create p sel in
    let steps = (2 * m) + 6 in
    let rec drive step =
      if step >= steps then
        match Incremental.self_check st with
        | Ok () -> Pass
        | Error msg -> failf "self_check after %d flips: %s" steps msg
      else
        let cur = Incremental.selection st in
        let value_now = Objective.value p cur in
        (* probe every candidate's delta against the naive evaluator *)
        let bad_probe =
          List.find_map
            (fun c ->
              cur.(c) <- not cur.(c);
              let naive = Frac.sub (Objective.value p cur) value_now in
              cur.(c) <- not cur.(c);
              let expected = Frac.add naive (expected_tweak p c) in
              let got = Incremental.flip_delta st c in
              if Frac.equal expected got then None
              else
                Some
                  (Format.asprintf
                     "flip_delta of candidate %d at step %d: expected %a, \
                      got %a"
                     c step Frac.pp expected Frac.pp got))
            (List.init m Fun.id)
        in
        match bad_probe with
        | Some msg -> Fail msg
        | None ->
          if m = 0 then
            if Frac.equal (Incremental.value st) value_now then Pass
            else Fail "value drifted on the empty candidate set"
          else begin
            let c = Random.State.int rng m in
            Incremental.flip st c;
            let now = Incremental.selection st in
            if
              not
                (breakdown_equal
                   (Objective.breakdown p now)
                   (Incremental.breakdown st))
            then
              failf "breakdown diverged after flipping candidate %d at step %d"
                c step
            else drive (step + 1)
          end
    in
    drive 0

let check_incremental = incremental_check ~expected_tweak:(fun _ _ -> Frac.zero)

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

(* --- cq-index: indexed vs unindexed CQ evaluation ---------------------- *)

let check_cq_index ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m ->
    let rng = rng_of ctx 5 in
    let check_inst inst queries =
      let index = Cq.Index.build inst in
      let norm answers = List.sort_uniq Subst.compare answers in
      List.find_map
        (fun q ->
          let plain = norm (Cq.answers inst q) in
          let indexed = norm (Cq.answers_indexed index q) in
          if not (List.equal Subst.equal plain indexed) then
            Some
              (Printf.sprintf
                 "indexed evaluator differs on a %d-atom query (%d vs %d \
                  answers)"
                 (List.length q) (List.length plain) (List.length indexed))
          else
            (* extend a partial substitution binding a random variable *)
            let vars =
              List.fold_left
                (fun acc a -> String_set.union acc (Atom.vars a))
                String_set.empty q
              |> String_set.elements
            in
            match vars, Value.Set.elements (Instance.constants inst) with
            | [], _ | _, [] -> None
            | vs, consts ->
              let x = List.nth vs (Random.State.int rng (List.length vs)) in
              let value =
                List.nth consts (Random.State.int rng (List.length consts))
              in
              let s = Subst.singleton x value in
              let plain_ext = norm (Cq.extensions inst s q) in
              let indexed_ext = norm (Cq.extensions_indexed index s q) in
              if List.equal Subst.equal plain_ext indexed_ext then None
              else Some "extensions_indexed differs from extensions")
        queries
    in
    let bodies = List.map (fun (t : Tgd.t) -> t.Tgd.body) m.Case.candidates in
    let heads = List.map (fun (t : Tgd.t) -> t.Tgd.head) m.Case.candidates in
    (match check_inst m.Case.source bodies with
    | Some msg -> failf "on the source instance: %s" msg
    | None -> (
      match check_inst m.Case.j heads with
      | Some msg -> failf "on the target instance: %s" msg
      | None -> Pass))

(* --- chase-determinism: permutation invariance and internal checks ----- *)

let triggers_equal (a : Chase.Trigger.t) (b : Chase.Trigger.t) =
  a.Chase.Trigger.tgd_index = b.Chase.Trigger.tgd_index
  && Subst.equal a.Chase.Trigger.subst b.Chase.Trigger.subst
  && List.equal Tuple.equal a.Chase.Trigger.tuples b.Chase.Trigger.tuples
  && Value.Set.equal a.Chase.Trigger.nulls b.Chase.Trigger.nulls

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

(* --- cache-identity: cached evaluation is bit-identical to uncached ----- *)

(* The differential oracle behind the cache's central contract: building a
   problem through a cache — cold or warm — and solving through a cache must
   be byte-for-byte what the uncached pipeline produces. Runs against a
   private cache so the verdict is independent of any campaign-level
   cache. *)
let check_cache_identity ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping m -> (
    let cache = Cache.create ~capacity:1024 () in
    let p_plain = Option.get (Lazy.force ctx.problem) in
    let p_cold = Case.problem ~cache m in
    let after_cold = (Cache.stats cache).Cache.misses in
    let p_warm = Case.problem ~cache m in
    let after_warm = (Cache.stats cache).Cache.misses in
    let key = Problem.digest p_plain in
    if Problem.digest p_cold <> key then
      Fail "cold cached problem differs from the uncached problem"
    else if Problem.digest p_warm <> key then
      Fail "warm cached problem differs from the uncached problem"
    else if after_warm <> after_cold then
      failf "warm rebuild recomputed %d candidate analyses"
        (after_warm - after_cold)
    else
      let solvers =
        if Problem.num_candidates p_plain <= 6 then [ "greedy"; "local" ]
        else [ "greedy" ]
      in
      let seed = ctx.case.Case.seed land 0xFFFFFF in
      let mismatch =
        List.find_map
          (fun name ->
            let impl = Option.get (Solver.find name) in
            let plain = (Solver.solve impl ~seed p_plain).Solver.selection in
            let cold =
              (Solver.solve impl ~seed ~cache p_cold).Solver.selection
            in
            let warm =
              (Solver.solve impl ~seed ~cache p_warm).Solver.selection
            in
            if plain <> cold then
              Some (name ^ ": cold cached selection differs")
            else if plain <> warm then
              Some (name ^ ": warm cached selection differs")
            else None)
          solvers
      in
      match mismatch with Some msg -> Fail msg | None -> Pass)

(* --- core-solution: the core is a minimal homomorphic retract ----------- *)

let tuple_is_ground (t : Tuple.t) =
  Array.for_all
    (function Value.Const _ -> true | Value.Null _ -> false)
    t.Tuple.values

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
             (fun t -> (not (tuple_is_ground t)) || Instance.mem t c)
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

(* --- portfolio: the race is deterministic and never beaten ------------- *)

(* `--solver portfolio` is only sound if a race is a pure function of
   (problem, seed) and returns the best (or a provably optimal) roster
   result, so no individually-run roster member may beat it. *)
let check_portfolio ctx =
  match ctx.case.Case.payload with
  | Case.Setcover _ | Case.Multihop _ -> Skip
  | Case.Mapping _ ->
    let p = Option.get (Lazy.force ctx.problem) in
    (* portfolio runs exact too; bound the problem like solver-order *)
    if Problem.num_candidates p > 8 || Problem.num_tuples p > 40 then Skip
    else
      let impl = Option.get (Solver.find "portfolio") in
      let seed = ctx.case.Case.seed land 0xFFFFFF in
      let r1 = (Solver.solve impl ~seed p).Solver.selection in
      let r2 = (Solver.solve impl ~seed p).Solver.selection in
      if r1 <> r2 then
        Fail "portfolio race is not deterministic in (problem, seed)"
      else
        let vp = Objective.value p r1 in
        let beaten name sel =
          if Frac.compare vp (Objective.value p sel) <= 0 then None
          else
            Some
              (Printf.sprintf "portfolio (F = %s) beaten by %s"
                 (Frac.to_string vp) name)
        in
        match beaten "cmd" (Cmd.solve p).Cmd.selection with
        | Some msg -> Fail msg
        | None -> (
          match beaten "greedy" (Greedy.solve p) with
          | Some msg -> Fail msg
          | None -> Pass)

(* --- algebra: the homomorphism checkers and the mapping algebra --------- *)

let take n l = List.filteri (fun i _ -> i < n) l

let ground_tuples inst =
  List.filter tuple_is_ground (Instance.tuples inst) |> List.sort compare

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
      doc = "Full (Eq. 4) fast path agrees with the Eq. 9 evaluator";
      check = check_eq4_eq9;
    };
    {
      name = "incremental";
      doc = "Core.Incremental matches the naive objective on flip sequences";
      check = check_incremental;
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
      name = "cq-index";
      doc = "indexed CQ evaluation agrees with the unindexed evaluator";
      check = check_cq_index;
    };
    {
      name = "chase-determinism";
      doc = "chase invariant under permutation, indexing, and self-checks";
      check = check_chase_determinism;
    };
    {
      name = "cache-identity";
      doc = "cached problems and selections are bit-identical to uncached";
      check = check_cache_identity;
    };
    {
      name = "core-solution";
      doc = "the core is a sub-instance, equivalent both ways, idempotent";
      check = check_core_solution;
    };
    {
      name = "portfolio";
      doc = "portfolio races deterministically and no roster member beats it";
      check = check_portfolio;
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
    ( "flip-delta",
      {
        name = "incremental";
        doc = "BROKEN: perturbs the flip delta of multi-cover candidates";
        check =
          incremental_check ~expected_tweak:(fun p c ->
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
