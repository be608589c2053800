open Relational

let tup = Alcotest.testable Tuple.pp Tuple.equal

let value_tests =
  [
    Alcotest.test_case "const before null" `Quick (fun () ->
        Alcotest.(check bool)
          "Const < Null" true
          (Value.compare (Const "zzz") (Null 0) < 0));
    Alcotest.test_case "null ordering by label" `Quick (fun () ->
        Alcotest.(check bool) "N1 < N2" true (Value.compare (Null 1) (Null 2) < 0));
    Alcotest.test_case "pp" `Quick (fun () ->
        Alcotest.(check string) "const" "abc" (Value.to_string (Const "abc"));
        Alcotest.(check string) "null" "_N7" (Value.to_string (Null 7)));
    Alcotest.test_case "is_null / is_const" `Quick (fun () ->
        Alcotest.(check bool) "null" true (Value.is_null (Null 0));
        Alcotest.(check bool) "const" true (Value.is_const (Const "x")));
  ]

let relation_tests =
  [
    Alcotest.test_case "make rejects duplicates" `Quick (fun () ->
        Alcotest.check_raises "dup"
          (Invalid_argument "Relation.make: duplicate attribute in r")
          (fun () -> ignore (Relation.make "r" [ "a"; "a" ])));
    Alcotest.test_case "make rejects empty" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Relation.make: empty attribute list") (fun () ->
            ignore (Relation.make "r" [])));
    Alcotest.test_case "attr_index" `Quick (fun () ->
        let r = Relation.make "r" [ "a"; "b"; "c" ] in
        Alcotest.(check int) "b" 1 (Relation.attr_index r "b");
        Alcotest.(check bool) "missing" false (Relation.has_attr r "z"));
  ]

let schema_tests =
  [
    Alcotest.test_case "add conflicting signature fails" `Quick (fun () ->
        let s = Schema.of_relations [ Relation.make "r" [ "a" ] ] in
        Alcotest.check_raises "conflict"
          (Invalid_argument "Schema.add: conflicting signatures for relation r")
          (fun () -> ignore (Schema.add (Relation.make "r" [ "a"; "b" ]) s)));
    Alcotest.test_case "add identical is no-op" `Quick (fun () ->
        let r = Relation.make "r" [ "a" ] in
        let s = Schema.of_relations [ r ] in
        Alcotest.(check bool) "equal" true (Schema.equal s (Schema.add r s)));
    Alcotest.test_case "union" `Quick (fun () ->
        let s1 = Schema.of_relations [ Relation.make "r" [ "a" ] ] in
        let s2 = Schema.of_relations [ Relation.make "q" [ "b" ] ] in
        let u = Schema.union s1 s2 in
        Alcotest.(check int) "size" 2 (Schema.size u);
        Alcotest.(check bool) "mem r" true (Schema.mem u "r");
        Alcotest.(check bool) "mem q" true (Schema.mem u "q"));
  ]

let tuple_tests =
  [
    Alcotest.test_case "ground / nulls" `Quick (fun () ->
        let t = Tuple.make "r" [ Const "a"; Null 3 ] in
        Alcotest.(check bool) "not ground" false (Tuple.is_ground t);
        Alcotest.(check int) "one null" 1 (Value.Set.cardinal (Tuple.nulls t));
        Alcotest.(check bool)
          "ground" true
          (Tuple.is_ground (Tuple.of_consts "r" [ "a"; "b" ])));
    Alcotest.test_case "compare is lexicographic" `Quick (fun () ->
        let a = Tuple.of_consts "r" [ "a"; "b" ] in
        let b = Tuple.of_consts "r" [ "a"; "c" ] in
        Alcotest.(check bool) "a<b" true (Tuple.compare a b < 0));
    Alcotest.test_case "map_values" `Quick (fun () ->
        let t = Tuple.make "r" [ Null 0; Const "x" ] in
        let t' =
          Tuple.map_values
            (function Value.Null 0 -> Value.Const "filled" | v -> v)
            t
        in
        Alcotest.check tup "filled" (Tuple.of_consts "r" [ "filled"; "x" ]) t');
  ]

let instance_tests =
  [
    Alcotest.test_case "add / mem / remove" `Quick (fun () ->
        let t = Tuple.of_consts "r" [ "a" ] in
        let i = Instance.add t Instance.empty in
        Alcotest.(check bool) "mem" true (Instance.mem t i);
        Alcotest.(check bool)
          "removed" false
          (Instance.mem t (Instance.remove t i)));
    Alcotest.test_case "duplicates collapse" `Quick (fun () ->
        let t = Tuple.of_consts "r" [ "a" ] in
        let i = Instance.of_tuples [ t; t; t ] in
        Alcotest.(check int) "card" 1 (Instance.cardinal i));
    Alcotest.test_case "diff and inter" `Quick (fun () ->
        let a = Tuple.of_consts "r" [ "a" ] in
        let b = Tuple.of_consts "r" [ "b" ] in
        let i1 = Instance.of_tuples [ a; b ] in
        let i2 = Instance.of_tuples [ b ] in
        Alcotest.(check int) "diff" 1 (Instance.cardinal (Instance.diff i1 i2));
        Alcotest.(check bool)
          "diff content" true
          (Instance.mem a (Instance.diff i1 i2));
        Alcotest.(check int) "inter" 1 (Instance.cardinal (Instance.inter i1 i2)));
    Alcotest.test_case "constants and nulls" `Quick (fun () ->
        let i =
          Instance.of_tuples [ Tuple.make "r" [ Const "a"; Null 1; Null 2 ] ]
        in
        Alcotest.(check int) "consts" 1 (Value.Set.cardinal (Instance.constants i));
        Alcotest.(check int) "nulls" 2 (Value.Set.cardinal (Instance.null_labels i));
        Alcotest.(check bool) "not ground" false (Instance.is_ground i));
  ]

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"union is an upper bound" ~count:100
      Fixtures.instance_gen (fun i ->
        let u = Instance.union i i in
        Instance.equal u i);
    Test.make ~name:"diff then union restores superset" ~count:100
      (Gen.pair Fixtures.instance_gen Fixtures.instance_gen) (fun (a, b) ->
        let d = Instance.diff a b in
        Instance.subset d a && Instance.is_empty (Instance.inter d b));
    Test.make ~name:"cardinal = length tuples" ~count:100 Fixtures.instance_gen
      (fun i -> Instance.cardinal i = List.length (Instance.tuples i));
    Test.make ~name:"subset reflexive, inter commutative" ~count:100
      (Gen.pair Fixtures.instance_gen Fixtures.instance_gen) (fun (a, b) ->
        Instance.subset a a
        && Instance.equal (Instance.inter a b) (Instance.inter b a));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let frac_tests =
  let open Util in
  let frac = Alcotest.testable Frac.pp Frac.equal in
  [
    Alcotest.test_case "normalisation" `Quick (fun () ->
        Alcotest.check frac "2/4 = 1/2" (Frac.make 1 2) (Frac.make 2 4);
        Alcotest.check frac "-1/-2 = 1/2" (Frac.make 1 2) (Frac.make (-1) (-2));
        Alcotest.(check int) "den > 0" 2 (Frac.den (Frac.make 1 (-2))));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        Alcotest.check frac "1/3+1/6" (Frac.make 1 2)
          (Frac.add (Frac.make 1 3) (Frac.make 1 6));
        Alcotest.check frac "1-2/3" (Frac.make 1 3)
          (Frac.sub Frac.one (Frac.make 2 3));
        Alcotest.check frac "2/3*3/4" (Frac.make 1 2)
          (Frac.mul (Frac.make 2 3) (Frac.make 3 4)));
    Alcotest.test_case "pp mixed number" `Quick (fun () ->
        Alcotest.(check string) "7 1/3" "7 1/3" (Frac.to_string (Frac.make 22 3));
        Alcotest.(check string) "2/3" "2/3" (Frac.to_string (Frac.make 2 3));
        Alcotest.(check string) "4" "4" (Frac.to_string (Frac.of_int 4)));
    Alcotest.test_case "sum and compare" `Quick (fun () ->
        Alcotest.check frac "sum" (Frac.of_int 1)
          (Frac.sum [ Frac.make 1 3; Frac.make 1 3; Frac.make 1 3 ]);
        Alcotest.(check bool) "lt" true Frac.(make 1 3 < make 1 2));
    Alcotest.test_case "near-max_int comparisons are exact" `Quick (fun () ->
        (* 3037000500² exceeds max_int, so naive cross-multiplication wraps
           and used to order these two the wrong way round. *)
        let a = Frac.make 3037000499 3037000500 in
        let b = Frac.make 3037000500 3037000501 in
        Alcotest.(check bool) "1 - 1/n < 1 - 1/(n+1)" true Frac.(a < b);
        Alcotest.(check bool) "antisymmetric" true (Frac.compare b a > 0);
        Alcotest.(check int) "reflexive" 0 (Frac.compare a a);
        Alcotest.(check bool)
          "min_int numerator orders" true
          Frac.(make min_int 1 < make (min_int + 1) 1);
        Alcotest.(check int)
          "min_int over odd denominator is total" 0
          (Frac.compare (Frac.make min_int 3) (Frac.make min_int 3));
        Alcotest.(check bool)
          "sign dominates magnitude" true
          Frac.(make min_int max_int < make 1 max_int);
        (* regression: [gcd (abs min_int) den] used to go negative and flip
           the denominator sign, breaking the den > 0 invariant *)
        Alcotest.(check bool)
          "min_int numerator keeps a positive denominator" true
          (Frac.den (Frac.make min_int max_int) > 0);
        Alcotest.check frac "min_int still reduces by shared factors"
          (Frac.make (min_int / 4) 1)
          (Frac.make min_int 4));
    Alcotest.test_case "negation at min_int raises, never wraps" `Quick
      (fun () ->
        let m = Frac.make min_int 1 in
        Alcotest.check_raises "neg" Frac.Overflow (fun () ->
            ignore (Frac.neg m));
        Alcotest.check_raises "sub" Frac.Overflow (fun () ->
            ignore (Frac.sub Frac.zero m));
        Alcotest.check_raises "div reciprocal" Frac.Overflow (fun () ->
            ignore (Frac.div Frac.one m)));
    Alcotest.test_case "unrepresentable results raise Overflow" `Quick
      (fun () ->
        Alcotest.check_raises "lcm of coprime huge denominators" Frac.Overflow
          (fun () ->
            ignore (Frac.add (Frac.make 1 max_int) (Frac.make 1 (max_int - 1))));
        Alcotest.check_raises "product of huge numerators" Frac.Overflow
          (fun () ->
            ignore (Frac.mul (Frac.make max_int 1) (Frac.make max_int 1)));
        (* cross-reduction means a representable result never raises, even
           when the naive intermediate product would wrap *)
        Alcotest.check frac "cross-reduced product is exact" Frac.one
          (Frac.mul (Frac.make max_int 3) (Frac.make 3 max_int));
        Alcotest.check frac "cross-reduced sum is exact"
          (Frac.make 2 max_int)
          (Frac.add (Frac.make 1 max_int) (Frac.make 1 max_int)))
  ]

let frac_qcheck_tests =
  let open QCheck2 in
  let open Util in
  let near_max = Gen.map (fun k -> max_int - k) (Gen.int_bound 1000) in
  let big_frac =
    Gen.map2
      (fun n d -> Frac.make n d)
      (Gen.oneof [ near_max; Gen.map Int.neg near_max ])
      near_max
  in
  let small_frac =
    Gen.map2
      (fun n d -> Frac.make n (d + 1))
      (Gen.int_range (-64) 64) (Gen.int_bound 63)
  in
  [
    Test.make ~name:"compare is antisymmetric near max_int" ~count:500
      (Gen.pair big_frac big_frac) (fun (a, b) ->
        Int.compare (Frac.compare a b) 0
        = - Int.compare (Frac.compare b a) 0);
    Test.make ~name:"compare agrees with equal near max_int" ~count:500
      (Gen.pair big_frac big_frac) (fun (a, b) ->
        Frac.equal a b = (Frac.compare a b = 0));
    Test.make ~name:"compare agrees with subtraction when it fits" ~count:500
      (Gen.pair small_frac small_frac) (fun (a, b) ->
        Int.compare (Frac.compare a b) 0
        = Int.compare (Frac.num (Frac.sub a b)) 0);
    Test.make ~name:"add associates" ~count:500
      (Gen.triple small_frac small_frac small_frac) (fun (a, b, c) ->
        Frac.equal (Frac.add (Frac.add a b) c) (Frac.add a (Frac.add b c)));
    Test.make ~name:"add commutes near max_int or overflows both ways"
      ~count:500 (Gen.pair big_frac big_frac) (fun (a, b) ->
        let try_add x y =
          match Frac.add x y with
          | v -> Some v
          | exception Frac.Overflow -> None
        in
        match (try_add a b, try_add b a) with
        | Some x, Some y -> Frac.equal x y
        | None, None -> true
        | _ -> false);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let bitset_tests =
  let open Util in
  [
    Alcotest.test_case "set / get / clear" `Quick (fun () ->
        let b = Bitset.create 100 in
        Bitset.set b 0;
        Bitset.set b 63;
        Bitset.set b 64;
        Bitset.set b 99;
        Alcotest.(check bool) "0" true (Bitset.get b 0);
        Alcotest.(check bool) "63" true (Bitset.get b 63);
        Alcotest.(check bool) "64" true (Bitset.get b 64);
        Alcotest.(check bool) "50" false (Bitset.get b 50);
        Alcotest.(check int) "count" 4 (Bitset.count b);
        Bitset.clear b 63;
        Alcotest.(check int) "count after clear" 3 (Bitset.count b));
    Alcotest.test_case "bounds checked" `Quick (fun () ->
        let b = Bitset.create 10 in
        Alcotest.(check bool)
          "negative" true
          (match Bitset.get b (-1) with exception Invalid_argument _ -> true | _ -> false);
        Alcotest.(check bool)
          "too large" true
          (match Bitset.set b 10 with exception Invalid_argument _ -> true | _ -> false));
    Alcotest.test_case "union_into and union_count" `Quick (fun () ->
        let a = Bitset.of_list 70 [ 1; 2; 69 ] in
        let b = Bitset.of_list 70 [ 2; 3 ] in
        Alcotest.(check int) "union count" 4 (Bitset.union_count a b);
        Alcotest.(check int) "a untouched" 3 (Bitset.count a);
        Bitset.union_into a b;
        Alcotest.(check int) "after union" 4 (Bitset.count a);
        Alcotest.(check (list int)) "bits" [ 1; 2; 3; 69 ] (Bitset.to_list a));
    Alcotest.test_case "width mismatch rejected" `Quick (fun () ->
        let a = Bitset.create 5 and b = Bitset.create 6 in
        Alcotest.(check bool)
          "raises" true
          (match Bitset.union_into a b with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "copy is independent" `Quick (fun () ->
        let a = Bitset.of_list 8 [ 1 ] in
        let b = Bitset.copy a in
        Bitset.set b 2;
        Alcotest.(check int) "a" 1 (Bitset.count a);
        Alcotest.(check int) "b" 2 (Bitset.count b);
        Alcotest.(check bool) "equal after same ops" false (Bitset.equal a b));
    Alcotest.test_case "roundtrip of_list/to_list" `Quick (fun () ->
        let bits = [ 0; 5; 31; 32; 63; 64; 65 ] in
        Alcotest.(check (list int)) "bits" bits (Bitset.to_list (Bitset.of_list 80 bits)));
  ]

(* Relational.Index: posting lists against a naive scan of the relation.
   The descending order is the contract the indexed CQ evaluator, and with
   it the chase's null numbering, depends on. *)
let index_qcheck =
  (* r2/r3 from the fixture plus a relation "m" mixing arities 1 and 2 *)
  let gen =
    QCheck2.Gen.(
      let* base = Fixtures.nullable_instance_gen in
      let* ones = list_size (int_range 0 4) (Fixtures.nullable_tuple_gen ~rel:"m" ~arity:1) in
      let* twos = list_size (int_range 0 4) (Fixtures.nullable_tuple_gen ~rel:"m" ~arity:2) in
      return (Instance.add_all (ones @ twos) base))
  in
  let naive inst rel pos v =
    List.rev
      (List.filter
         (fun (t : Tuple.t) ->
           pos < Array.length t.values && Value.equal t.values.(pos) v)
         (Tuple.Set.elements (Instance.tuples_of inst rel)))
  in
  [
    QCheck2.Test.make ~name:"find is the descending naive scan" ~count:300 gen
      (fun inst ->
        let idx = Index.build inst in
        Instance.fold
          (fun (t : Tuple.t) ok ->
            ok
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun pos v ->
                      List.equal Tuple.equal (Index.find idx t.rel pos v)
                        (naive inst t.rel pos v))
                    t.values))
          inst true);
    QCheck2.Test.make ~name:"find misses absent keys" ~count:200 gen (fun inst ->
        let idx = Index.build inst in
        Index.find idx "r2" 0 (Value.Const "absent") = []
        && Index.find idx "r2" 2 (Value.Const "c0") = []
        && Index.find idx "none" 0 (Value.Const "c0") = []);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let stats_tests =
  let open Util in
  [
    Alcotest.test_case "mean / stddev" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
        Alcotest.(check (float 1e-9)) "empty mean" 0. (Stats.mean []);
        Alcotest.(check (float 1e-9)) "stddev" 1. (Stats.stddev [ 1.; 2.; 3. ]);
        Alcotest.(check (float 1e-9)) "singleton stddev" 0. (Stats.stddev [ 5. ]));
    Alcotest.test_case "median / percentile" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "median odd" 3. (Stats.median [ 5.; 1.; 3. ]);
        Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile 100. [ 5.; 1.; 3. ]);
        Alcotest.(check (float 1e-9)) "p1 -> min" 1. (Stats.percentile 1. [ 5.; 1.; 3. ]);
        Alcotest.(check (float 1e-9)) "empty" 0. (Stats.median []));
    Alcotest.test_case "harmonic (the F1 convention)" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "balanced" 0.5 (Stats.harmonic 0.5 0.5);
        Alcotest.(check (float 1e-9)) "zero side" 0. (Stats.harmonic 0. 1.);
        Alcotest.(check (float 1e-6)) "f1" (2. *. 0.8 *. 0.4 /. 1.2)
          (Stats.harmonic 0.8 0.4));
    Alcotest.test_case "timer measures" `Quick (fun () ->
        let x, ms = Util.Timer.time_ms (fun () -> 41 + 1) in
        Alcotest.(check int) "result" 42 x;
        Alcotest.(check bool) "non-negative" true (ms >= 0.));
  ]

let () =
  Alcotest.run "relational"
    [
      ("value", value_tests);
      ("relation", relation_tests);
      ("schema", schema_tests);
      ("tuple", tuple_tests);
      ("instance", instance_tests);
      ("instance-properties", qcheck_tests);
      ("frac", frac_tests);
      ("frac-properties", frac_qcheck_tests);
      ("bitset", bitset_tests);
      ("index", index_qcheck);
      ("stats", stats_tests);
    ]
