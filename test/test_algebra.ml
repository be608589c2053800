(* The mapping algebra (lib/algebra): composition and containment.

   Unit tests pin the hand-crafted two-hop pipeline scenario (the composed
   pool, identity laws); qcheck properties check the
   algebraic laws — associativity of composition as far as its contract
   promises it, containment reflexivity and antisymmetry — on generated
   multi-hop chains, which also exercise joins and existentials. *)

open Logic

let v x = Term.Var x

let tgd label body head = Tgd.make ~label ~body ~head ()

let atom rel vars = Atom.make rel (List.map v vars)

let check_equiv name a b =
  Alcotest.(check bool) name true (Algebra.equivalent a b)

(* --- the pipeline scenario ---------------------------------------------- *)

let composed_truth =
  [
    tgd "e2e_report" [ atom "proj" [ "P"; "E" ] ] [ atom "report" [ "P"; "E" ] ];
    tgd "e2e_person" [ atom "proj" [ "P"; "E" ] ] [ atom "person" [ "E" ] ];
  ]

let test_pipeline_compose () =
  let composed = Algebra.compose_all Scenarios.Pipeline.truth_pools in
  check_equiv "truth composes to the end-to-end mapping" composed
    composed_truth;
  (* the full pools keep the noise twin alive through composition: the
     composed pool is strictly stronger than the composed truth *)
  let pool = Algebra.compose_all Scenarios.Pipeline.pools in
  Alcotest.(check bool)
    "pool contains the truth" true
    (Algebra.contained_in pool composed_truth);
  Alcotest.(check bool)
    "truth does not contain the pool" false
    (Algebra.contained_in composed_truth pool)

let test_identity () =
  (* composing with the identity mapping over the intermediate schema is a
     no-op up to equivalence, on either side *)
  let id_t =
    [
      tgd "id_task" [ atom "task" [ "P"; "E" ] ] [ atom "task" [ "P"; "E" ] ];
      tgd "id_staff" [ atom "staff" [ "E" ] ] [ atom "staff" [ "E" ] ];
    ]
  in
  let hop1 = List.hd Scenarios.Pipeline.pools in
  check_equiv "m ; id = m" (Algebra.compose hop1 id_t) hop1;
  let hop2 = List.nth Scenarios.Pipeline.pools 1 in
  check_equiv "id ; m = m" (Algebra.compose id_t hop2) hop2

let test_compose_empty () =
  Alcotest.(check (list pass)) "[] composes to []" [] (Algebra.compose_all []);
  Alcotest.(check (list pass))
    "m ; [] = []" []
    (Algebra.compose (List.hd Scenarios.Pipeline.pools) [])

let test_composed_chase_agrees () =
  (* no existentials anywhere in the pipeline truth, so the hop-by-hop
     chase and the composed chase must produce identical ground instances *)
  let open Relational in
  let hopwise =
    Algebra.chase_through Scenarios.Pipeline.initial
      Scenarios.Pipeline.truth_pools
  in
  let direct =
    Chase.universal_solution Scenarios.Pipeline.initial
      (Algebra.compose_all Scenarios.Pipeline.truth_pools)
  in
  let tuples i = List.sort compare (Instance.tuples i) in
  Alcotest.(check bool)
    "identical instances" true
    (tuples hopwise = tuples direct)

(* --- containment --------------------------------------------------------- *)

let test_containment () =
  let general = [ tgd "g" [ atom "proj" [ "P"; "E" ] ] [ atom "task" [ "P"; "E" ] ] ] in
  let specific =
    [
      Tgd.make ~label:"s"
        ~body:[ Atom.make "proj" [ Term.Cst "ML"; v "E" ] ]
        ~head:[ Atom.make "task" [ Term.Cst "ML"; v "E" ] ]
        ();
    ]
  in
  Alcotest.(check bool)
    "general is contained in specific" true
    (Algebra.contained_in general specific);
  Alcotest.(check bool)
    "specific is not contained in general" false
    (Algebra.contained_in specific general);
  (* antisymmetry up to equivalence: mutual containment of syntactically
     different presentations *)
  let doubled =
    [
      tgd "d"
        [ atom "proj" [ "P"; "E" ]; atom "proj" [ "P"; "E2" ] ]
        [ atom "task" [ "P"; "E" ] ];
    ]
  in
  Alcotest.(check bool)
    "mutual containment" true
    (Algebra.contained_in general doubled
    && Algebra.contained_in doubled general);
  check_equiv "means equivalence" general doubled

(* --- qcheck laws on generated chains ------------------------------------- *)

let chain_gen =
  QCheck2.Gen.(
    let* seed = int_bound 0x3FFFFF in
    let* relations = int_range 1 2 in
    let* arity = int_range 1 2 in
    return
      (Ibench.Multihop.generate
         {
           Ibench.Multihop.relations;
           arity;
           rows = 2;
           hops = 3;
           pi_corresp = 20;
           pi_errors = 0;
           pi_unexplained = 0;
           seed;
         }))

let mappings_of s = Ibench.Multihop.mappings s

let chain ~seed ~relations ~arity =
  Ibench.Multihop.mappings
    (Ibench.Multihop.generate
       {
         Ibench.Multihop.relations;
         arity;
         rows = 2;
         hops = 3;
         pi_corresp = 20;
         pi_errors = 0;
         pi_unexplained = 0;
         seed;
       })

(* Two chains the unconditional law "associative up to equivalence" failed
   on. The first is the one QCHECK_SEED=10 drew: its first hop invents a
   null that two second-hop tgds consume, so [m1 ; m2] loses their
   correlation and the left order misses a consequence the right one
   keeps. The second is full throughout, but at the default [limit] the
   right order's unfolding is cut short. *)
let test_associativity_regressions () =
  (match chain ~seed:560059 ~relations:2 ~arity:1 with
  | [ m1; m2; m3 ] ->
    Alcotest.(check bool)
      "first hop has existentials" false
      (List.for_all Tgd.is_full m1);
    Alcotest.(check bool)
      "both orders sound" true
      (Algebra.associative m1 m2 m3)
  | _ -> Alcotest.fail "expected three hops");
  match chain ~seed:85 ~relations:1 ~arity:2 with
  | [ m1; m2; m3 ] ->
    Alcotest.(check bool)
      "full hops" true
      (List.for_all Tgd.is_full (m1 @ m2 @ m3));
    Alcotest.(check bool)
      "equivalent when unfolded completely" true
      (Algebra.associative m1 m2 m3)
  | _ -> Alcotest.fail "expected three hops"

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make
      ~name:
        "compose is associative up to equivalence on full hops, sound \
         otherwise"
      ~count:12
      ~print:(fun s -> Format.asprintf "%a" Ibench.Multihop.pp_summary s)
      chain_gen
      (fun s ->
        match mappings_of s with
        | [ m1; m2; m3 ] -> Algebra.associative m1 m2 m3
        | _ -> QCheck2.assume_fail ());
    Test.make ~name:"containment is reflexive on composed pools" ~count:12
      ~print:(fun s -> Format.asprintf "%a" Ibench.Multihop.pp_summary s)
      chain_gen
      (fun s ->
        let c = Algebra.compose_all (mappings_of s) in
        Algebra.contained_in c c);
    Test.make ~name:"compose_all of a singleton is the mapping" ~count:12
      ~print:(fun s -> Format.asprintf "%a" Ibench.Multihop.pp_summary s)
      chain_gen
      (fun s ->
        match mappings_of s with
        | m :: _ -> Algebra.equivalent (Algebra.compose_all [ m ]) m
        | [] -> QCheck2.assume_fail ());
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "algebra"
    [
      ( "compose",
        [
          Alcotest.test_case "pipeline composes to the end-to-end truth"
            `Quick test_pipeline_compose;
          Alcotest.test_case "identity laws" `Quick test_identity;
          Alcotest.test_case "empty compositions" `Quick test_compose_empty;
          Alcotest.test_case "hop-by-hop chase agrees with composed chase"
            `Quick test_composed_chase_agrees;
          Alcotest.test_case "associativity regression chains" `Quick
            test_associativity_regressions;
        ] );
      ( "containment",
        [ Alcotest.test_case "containment and antisymmetry" `Quick test_containment ] );
      ("laws", qcheck_tests);
    ]
