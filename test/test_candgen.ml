open Relational
open Logic
open Candgen

let v = Fixtures.v

(* The appendix schemas plus the target foreign key task.oid -> org.oid that
   makes {task, org} a logical association. *)
let tgt_fkeys = [ Fkey.make ~from:("task", "oid") ~to_:("org", "oid") ]

let corrs =
  [
    Correspondence.make ~src:("proj", "pname") ~tgt:("task", "pname");
    Correspondence.make ~src:("proj", "emp") ~tgt:("task", "emp");
    Correspondence.make ~src:("proj", "org") ~tgt:("org", "oname");
  ]

let fkey_tests =
  [
    Alcotest.test_case "validate" `Quick (fun () ->
        let fk = List.hd tgt_fkeys in
        Alcotest.(check bool)
          "ok" true
          (Fkey.validate Fixtures.target_schema fk = Ok ());
        let bad = Fkey.make ~from:("task", "nope") ~to_:("org", "oid") in
        Alcotest.(check bool)
          "bad attr" true
          (Fkey.validate Fixtures.target_schema bad <> Ok ()));
    Alcotest.test_case "outgoing" `Quick (fun () ->
        Alcotest.(check int) "task" 1 (List.length (Fkey.outgoing tgt_fkeys "task"));
        Alcotest.(check int) "org" 0 (List.length (Fkey.outgoing tgt_fkeys "org")));
  ]

let correspondence_tests =
  [
    Alcotest.test_case "validate endpoints" `Quick (fun () ->
        Alcotest.(check bool)
          "ok" true
          (Correspondence.validate ~source:Fixtures.source_schema
             ~target:Fixtures.target_schema (List.hd corrs)
          = Ok ());
        let bad = Correspondence.make ~src:("proj", "zz") ~tgt:("task", "pname") in
        Alcotest.(check bool)
          "bad" true
          (Correspondence.validate ~source:Fixtures.source_schema
             ~target:Fixtures.target_schema bad
          <> Ok ()));
  ]

let assoc_tests =
  [
    Alcotest.test_case "fkey closure joins task with org" `Quick (fun () ->
        let a =
          Assoc.of_relation ~schema:Fixtures.target_schema ~fkeys:tgt_fkeys "task"
        in
        Alcotest.(check (list string)) "relations" [ "task"; "org" ] a.Assoc.relations;
        (* the join variable is shared between task.oid and org.oid *)
        let v1 = Option.get (Assoc.var_of a "task" "oid") in
        let v2 = Option.get (Assoc.var_of a "org" "oid") in
        Alcotest.(check string) "joined" v1 v2);
    Alcotest.test_case "relation without outgoing fkeys is a singleton" `Quick
      (fun () ->
        let a =
          Assoc.of_relation ~schema:Fixtures.target_schema ~fkeys:tgt_fkeys "org"
        in
        Alcotest.(check (list string)) "relations" [ "org" ] a.Assoc.relations);
    Alcotest.test_case "cyclic foreign keys terminate" `Quick (fun () ->
        let schema =
          Schema.of_relations
            [ Relation.make "a" [ "x"; "y" ]; Relation.make "b" [ "u"; "w" ] ]
        in
        let fkeys =
          [
            Fkey.make ~from:("a", "y") ~to_:("b", "u");
            Fkey.make ~from:("b", "w") ~to_:("a", "x");
          ]
        in
        let a = Assoc.of_relation ~schema ~fkeys "a" in
        Alcotest.(check int) "two relations" 2 (List.length a.Assoc.relations);
        (* cycle also unifies b.w with a.x *)
        let v1 = Option.get (Assoc.var_of a "b" "w") in
        let v2 = Option.get (Assoc.var_of a "a" "x") in
        Alcotest.(check string) "cycle join" v1 v2);
    Alcotest.test_case "all produces one association per relation" `Quick
      (fun () ->
        let assocs = Assoc.all ~schema:Fixtures.target_schema ~fkeys:tgt_fkeys in
        Alcotest.(check int) "two" 2 (List.length assocs));
  ]

let generate_candidates () =
  Generate.generate ~source:Fixtures.source_schema ~target:Fixtures.target_schema
    ~src_fkeys:[] ~tgt_fkeys ~corrs

let generate_tests =
  [
    Alcotest.test_case "appendix candidates: join tgd and partial org tgd"
      `Quick (fun () ->
        let cands = generate_candidates () in
        Alcotest.(check int) "two candidates" 2 (List.length cands);
        Alcotest.(check bool)
          "theta3 generated" true
          (List.exists (Tgd.equal_up_to_renaming Fixtures.theta3) cands));
    Alcotest.test_case "no correspondences, no candidates" `Quick (fun () ->
        let cands =
          Generate.generate ~source:Fixtures.source_schema
            ~target:Fixtures.target_schema ~src_fkeys:[] ~tgt_fkeys ~corrs:[]
        in
        Alcotest.(check int) "none" 0 (List.length cands));
    Alcotest.test_case "candidates are well-formed" `Quick (fun () ->
        List.iter
          (fun tgd ->
            Alcotest.(check bool)
              "well-formed" true
              (Tgd.well_formed ~source:Fixtures.source_schema
                 ~target:Fixtures.target_schema tgd
              = Ok ()))
          (generate_candidates ()));
    Alcotest.test_case "labels are theta1..thetaN" `Quick (fun () ->
        List.iteri
          (fun i (tgd : Tgd.t) ->
            Alcotest.(check string)
              "label"
              (Printf.sprintf "theta%d" (i + 1))
              tgd.Tgd.label)
          (generate_candidates ()));
    Alcotest.test_case "without the target fkey, no join candidate" `Quick
      (fun () ->
        let cands =
          Generate.generate ~source:Fixtures.source_schema
            ~target:Fixtures.target_schema ~src_fkeys:[] ~tgt_fkeys:[] ~corrs
        in
        (* associations are singletons: proj->task and proj->org only *)
        Alcotest.(check int) "two" 2 (List.length cands);
        Alcotest.(check bool)
          "no theta3" false
          (List.exists (Tgd.equal_up_to_renaming Fixtures.theta3) cands);
        Alcotest.(check bool)
          "theta1 present" true
          (List.exists (Tgd.equal_up_to_renaming Fixtures.theta1) cands));
    Alcotest.test_case "duplicate correspondences do not duplicate candidates"
      `Quick (fun () ->
        let cands =
          Generate.generate ~source:Fixtures.source_schema
            ~target:Fixtures.target_schema ~src_fkeys:[] ~tgt_fkeys
            ~corrs:(corrs @ corrs)
        in
        Alcotest.(check int) "still two" 2 (List.length cands));
  ]

(* --- bucketed dedup against the quadratic fold it replaced -------------- *)

(* The generation that compared every raw candidate with every kept one,
   filtering the correspondences per association pair: the oracle for
   [Generate.generate]. *)
module Quadratic = struct
  let prefix_vars prefix atoms =
    List.map
      (fun (a : Atom.t) ->
        { a with
          Atom.args =
            Array.map
              (function
                | Term.Var v -> Term.Var (prefix ^ v)
                | Term.Cst _ as cst -> cst)
              a.Atom.args
        })
      atoms

  let candidate_of_pair (sa : Assoc.t) (ta : Assoc.t) corrs =
    let relevant =
      List.filter
        (fun (c : Correspondence.t) ->
          Assoc.mem sa c.Correspondence.src_rel
          && Assoc.mem ta c.Correspondence.tgt_rel)
        corrs
    in
    if relevant = [] then None
    else begin
      let mapping = Hashtbl.create 8 in
      List.iter
        (fun (c : Correspondence.t) ->
          match
            ( Assoc.var_of sa c.Correspondence.src_rel c.Correspondence.src_attr,
              Assoc.var_of ta c.Correspondence.tgt_rel c.Correspondence.tgt_attr )
          with
          | Some sv, Some tv ->
            if not (Hashtbl.mem mapping ("T" ^ tv)) then
              Hashtbl.add mapping ("T" ^ tv) ("S" ^ sv)
          | None, _ | _, None -> ())
        relevant;
      let body = prefix_vars "S" sa.Assoc.atoms in
      let head =
        prefix_vars "T" ta.Assoc.atoms
        |> List.map (fun (a : Atom.t) ->
               { a with
                 Atom.args =
                   Array.map
                     (function
                       | Term.Var v -> (
                         match Hashtbl.find_opt mapping v with
                         | Some sv -> Term.Var sv
                         | None -> Term.Var v)
                       | Term.Cst _ as cst -> cst)
                     a.Atom.args
               })
      in
      Some (Tgd.make ~body ~head ())
    end

  let raw ~source ~target ~src_fkeys ~tgt_fkeys ~corrs =
    let tgt_assocs = Assoc.all ~schema:target ~fkeys:tgt_fkeys in
    List.concat_map
      (fun sa ->
        List.filter_map (fun ta -> candidate_of_pair sa ta corrs) tgt_assocs)
      (Assoc.all ~schema:source ~fkeys:src_fkeys)

  let generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs =
    List.fold_left
      (fun acc tgd ->
        if List.exists (Tgd.equal_up_to_renaming tgd) acc then acc
        else tgd :: acc)
      [] (raw ~source ~target ~src_fkeys ~tgt_fkeys ~corrs)
    |> List.rev
    |> List.mapi (fun i tgd -> Tgd.relabel (Printf.sprintf "theta%d" (i + 1)) tgd)

  let shapes (t : Tgd.t) =
    let side atoms =
      List.map
        (fun (a : Atom.t) ->
          ( a.Atom.rel,
            Array.map
              (function Term.Cst c -> Some c | Term.Var _ -> None)
              a.Atom.args ))
        atoms
      |> List.sort compare
    in
    (side t.Tgd.body, side t.Tgd.head)

  (* The renaming checks a bucketed fold makes: a raw candidate is compared,
     newest first and up to the first match, with the kept candidates whose
     body and head have its multisets of atom shapes. *)
  let bucketed_checks raw =
    List.fold_left
      (fun (n, kept) tgd ->
        let peers = List.filter (fun k -> shapes k = shapes tgd) kept in
        match List.find_index (Tgd.equal_up_to_renaming tgd) peers with
        | Some i -> (n + i + 1, kept)
        | None -> (n + List.length peers, tgd :: kept))
      (0, []) raw
    |> fst
end

(* Equal length, equal labels, structurally equal tgds at every position. *)
let same_candidates xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (x : Tgd.t) (y : Tgd.t) ->
         String.equal x.Tgd.label y.Tgd.label && Tgd.equal x y)
       xs ys

let both ~source ~target ~src_fkeys ~tgt_fkeys ~corrs =
  ( Generate.generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs,
    Quadratic.generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs )

(* Two relations whose foreign keys form a cycle, so the associations
   anchored at [a] and at [b] are one closure in two atom orders. *)
let cyclic_source =
  Schema.of_relations
    [ Relation.make "a" [ "x"; "y" ]; Relation.make "b" [ "u"; "w" ] ]

let cyclic_fkeys =
  [
    Fkey.make ~from:("a", "y") ~to_:("b", "u");
    Fkey.make ~from:("b", "w") ~to_:("a", "x");
  ]

let cyclic_target = Schema.of_relations [ Relation.make "t" [ "p"; "q" ] ]

let cyclic_corrs =
  [
    Correspondence.make ~src:("a", "x") ~tgt:("t", "p");
    Correspondence.make ~src:("b", "u") ~tgt:("t", "q");
  ]

let generate_cyclic () =
  Generate.generate ~source:cyclic_source ~target:cyclic_target
    ~src_fkeys:cyclic_fkeys ~tgt_fkeys:[] ~corrs:cyclic_corrs

(* [n] foreign-key cycles of one to three relations each, on top of
   [fkeys], drawn from [seed]. *)
let with_cycles ~seed ~n schema fkeys =
  let rng = Random.State.make [| seed |] in
  let rels = Array.of_list (Schema.relations schema) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let end_of (r : Relation.t) = (r.Relation.name, pick r.Relation.attrs) in
  let cycle () =
    let k = 1 + Random.State.int rng (min 3 (Array.length rels)) in
    let members = Array.init k (fun _ -> pick rels) in
    List.init k (fun i ->
        Fkey.make ~from:(end_of members.(i)) ~to_:(end_of members.((i + 1) mod k)))
  in
  fkeys @ List.concat (List.init n (fun _ -> cycle ()))

type differential_case = {
  config : Ibench.Config.t;
  cycle_seed : int;
  src_cycles : int;
  tgt_cycles : int;
}

let differential_gen =
  let open QCheck2.Gen in
  let* primitives =
    List.map
      (fun kind -> pair (return kind) (int_range 0 3))
      Ibench.Primitive.all
    |> flatten_l
  in
  let primitives =
    match List.filter (fun (_, n) -> n > 0) primitives with
    | [] -> [ (Ibench.Primitive.CP, 1) ]
    | some -> some
  in
  let* pi_corresp = int_range 0 100 in
  let* seed = int_bound 10_000 in
  let* cycle_seed = int_bound 10_000 in
  let* src_cycles = int_range 0 2 in
  let+ tgt_cycles = int_range 0 2 in
  {
    config =
      {
        Ibench.Config.default with
        Ibench.Config.primitives;
        rows_per_relation = 2;
        pi_corresp;
        seed;
      };
    cycle_seed;
    src_cycles;
    tgt_cycles;
  }

let print_differential c =
  Format.asprintf "%a@.cycles: seed %d, %d source, %d target" Ibench.Config.pp
    c.config c.cycle_seed c.src_cycles c.tgt_cycles

let inputs_of c =
  let s = Ibench.Generator.generate c.config in
  ( s.Ibench.Scenario.source,
    s.Ibench.Scenario.target,
    with_cycles ~seed:c.cycle_seed ~n:c.src_cycles s.Ibench.Scenario.source
      s.Ibench.Scenario.src_fkeys,
    with_cycles ~seed:(c.cycle_seed + 1) ~n:c.tgt_cycles
      s.Ibench.Scenario.target s.Ibench.Scenario.tgt_fkeys,
    s.Ibench.Scenario.correspondences )

let candgen_counters =
  [ "candgen.pairs"; "candgen.duplicates"; "candgen.renaming_checks" ]

let dedup_tests =
  [
    Alcotest.test_case "duplicate correspondences: same as the quadratic fold"
      `Quick (fun () ->
        let fast, slow =
          both ~source:Fixtures.source_schema ~target:Fixtures.target_schema
            ~src_fkeys:[] ~tgt_fkeys ~corrs:(corrs @ corrs)
        in
        Alcotest.(check bool) "same" true (same_candidates fast slow));
    Alcotest.test_case "cyclic closure: one candidate, the first one kept"
      `Quick (fun () ->
        let raw =
          Quadratic.raw ~source:cyclic_source ~target:cyclic_target
            ~src_fkeys:cyclic_fkeys ~tgt_fkeys:[] ~corrs:cyclic_corrs
        in
        Alcotest.(check int) "two raw candidates" 2 (List.length raw);
        let fast, slow =
          both ~source:cyclic_source ~target:cyclic_target
            ~src_fkeys:cyclic_fkeys ~tgt_fkeys:[] ~corrs:cyclic_corrs
        in
        Alcotest.(check int) "one kept" 1 (List.length fast);
        Alcotest.(check bool) "same" true (same_candidates fast slow);
        (* the pair anchored at [a] comes first, so its atom order stays *)
        Alcotest.(check (list string))
          "body order" [ "a"; "b" ]
          (List.map (fun (x : Atom.t) -> x.Atom.rel) (List.hd fast).Tgd.body));
    Alcotest.test_case "counters: appendix with duplicate correspondences"
      `Quick (fun () ->
        let cands, deltas =
          Fixtures.counting candgen_counters (fun () ->
              Generate.generate ~source:Fixtures.source_schema
                ~target:Fixtures.target_schema ~src_fkeys:[] ~tgt_fkeys
                ~corrs:(corrs @ corrs))
        in
        Alcotest.(check int) "two candidates" 2 (List.length cands);
        (* proj→{task, org} and proj→{org}: different head shapes, so no
           renaming check is needed *)
        Alcotest.(check (list int)) "pairs, duplicates, checks" [ 2; 0; 0 ] deltas);
    Alcotest.test_case "counters: cyclic closure" `Quick (fun () ->
        let _, deltas = Fixtures.counting candgen_counters generate_cyclic in
        Alcotest.(check (list int)) "pairs, duplicates, checks" [ 2; 1; 1 ] deltas);
    Alcotest.test_case "the differential generator produces duplicates" `Quick
      (fun () ->
        (* otherwise the property below would never reach a bucket with
           more than one candidate *)
        let rand = Random.State.make [| 14 |] in
        let duplicates =
          QCheck2.Gen.generate ~rand ~n:40 differential_gen
          |> List.map (fun c ->
                 let source, target, src_fkeys, tgt_fkeys, corrs = inputs_of c in
                 List.length
                   (Quadratic.raw ~source ~target ~src_fkeys ~tgt_fkeys ~corrs)
                 - List.length
                     (Quadratic.generate ~source ~target ~src_fkeys ~tgt_fkeys
                        ~corrs))
        in
        Alcotest.(check bool)
          "some case has duplicates" true
          (List.exists (fun d -> d > 0) duplicates));
    QCheck2.Test.make ~name:"bucketed dedup equals the quadratic fold"
      ~count:100 ~print:print_differential differential_gen (fun c ->
        let source, target, src_fkeys, tgt_fkeys, corrs = inputs_of c in
        let fast, checks =
          Fixtures.counting [ "candgen.renaming_checks" ] (fun () ->
              Generate.generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs)
        in
        same_candidates fast
          (Quadratic.generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs)
        (* and it only compares candidates of equal shapes *)
        && checks
           = [
               Quadratic.bucketed_checks
                 (Quadratic.raw ~source ~target ~src_fkeys ~tgt_fkeys ~corrs);
             ])
    |> QCheck_alcotest.to_alcotest;
  ]

let roundtrip_tests =
  [
    Alcotest.test_case "correspondences_of_tgd recovers the evidence" `Quick
      (fun () ->
        let got =
          Generate.correspondences_of_tgd ~source:Fixtures.source_schema
            ~target:Fixtures.target_schema Fixtures.theta3
        in
        Alcotest.(check int) "three" 3 (List.length got);
        List.iter
          (fun c ->
            Alcotest.(check bool)
              (Format.asprintf "%a expected" Correspondence.pp c)
              true
              (List.exists (Correspondence.equal c)
                 (Correspondence.make ~src:("proj", "org") ~tgt:("org", "oname")
                 :: corrs)))
          got);
    Alcotest.test_case "constants induce no correspondences" `Quick (fun () ->
        let tgd =
          Tgd.make
            ~body:[ Atom.make "proj" [ v "P"; Term.Cst "Bob"; v "O" ] ]
            ~head:[ Atom.make "org" [ v "O"; Term.Cst "IBM" ] ]
            ()
        in
        let got =
          Generate.correspondences_of_tgd ~source:Fixtures.source_schema
            ~target:Fixtures.target_schema tgd
        in
        Alcotest.(check int) "one" 1 (List.length got));
  ]

let () =
  Alcotest.run "candgen"
    [
      ("fkey", fkey_tests);
      ("correspondence", correspondence_tests);
      ("assoc", assoc_tests);
      ("generate", generate_tests);
      ("dedup", dedup_tests);
      ("roundtrip", roundtrip_tests);
    ]
