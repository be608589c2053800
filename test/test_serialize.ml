open Relational
open Serialize

let appendix_doc =
  {
    Document.source = Fixtures.source_schema;
    target = Fixtures.target_schema;
    src_fkeys = [];
    tgt_fkeys = [ Candgen.Fkey.make ~from:("task", "oid") ~to_:("org", "oid") ];
    correspondences =
      [
        Candgen.Correspondence.make ~src:("proj", "pname") ~tgt:("task", "pname");
      ];
    tgds = [ Fixtures.theta1; Fixtures.theta3 ];
    instance_i = Fixtures.instance_i;
    instance_j = Fixtures.instance_j;
  }

let parse_ok text =
  match Parser.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let roundtrip_tests =
  [
    Alcotest.test_case "appendix document roundtrips" `Quick (fun () ->
        let doc = parse_ok (Document.to_string appendix_doc) in
        Alcotest.(check bool)
          "source schema" true
          (Schema.equal doc.Document.source appendix_doc.Document.source);
        Alcotest.(check bool)
          "target schema" true
          (Schema.equal doc.Document.target appendix_doc.Document.target);
        Alcotest.(check int)
          "fkeys" 1
          (List.length doc.Document.tgt_fkeys);
        Alcotest.(check int)
          "correspondences" 1
          (List.length doc.Document.correspondences);
        Alcotest.(check int) "tgds" 2 (List.length doc.Document.tgds);
        Alcotest.(check bool)
          "theta1" true
          (Logic.Tgd.equal_up_to_renaming (List.hd doc.Document.tgds) Fixtures.theta1);
        Alcotest.(check bool)
          "instance I" true
          (Instance.equal doc.Document.instance_i appendix_doc.Document.instance_i);
        Alcotest.(check bool)
          "instance J" true
          (Instance.equal doc.Document.instance_j appendix_doc.Document.instance_j));
    Alcotest.test_case "generated scenario roundtrips" `Quick (fun () ->
        let s = Ibench.Generator.generate Ibench.Config.default in
        let doc =
          {
            Document.source = s.Ibench.Scenario.source;
            target = s.Ibench.Scenario.target;
            src_fkeys = s.Ibench.Scenario.src_fkeys;
            tgt_fkeys = s.Ibench.Scenario.tgt_fkeys;
            correspondences = s.Ibench.Scenario.correspondences;
            tgds = s.Ibench.Scenario.candidates;
            instance_i = s.Ibench.Scenario.instance_i;
            instance_j = s.Ibench.Scenario.instance_j;
          }
        in
        let doc' = parse_ok (Document.to_string doc) in
        Alcotest.(check int)
          "tgds survive"
          (List.length doc.Document.tgds)
          (List.length doc'.Document.tgds);
        List.iter2
          (fun a b ->
            Alcotest.(check bool)
              "tgd preserved" true
              (Logic.Tgd.equal_up_to_renaming a b))
          doc.Document.tgds doc'.Document.tgds;
        Alcotest.(check bool)
          "I preserved" true
          (Instance.equal doc.Document.instance_i doc'.Document.instance_i);
        Alcotest.(check bool)
          "J preserved" true
          (Instance.equal doc.Document.instance_j doc'.Document.instance_j));
  ]

let parser_tests =
  [
    Alcotest.test_case "comments and blank lines ignored" `Quick (fun () ->
        let doc = parse_ok "# hello\n\n  \nsource relation r(a, b)\n" in
        Alcotest.(check int) "one relation" 1 (Schema.size doc.Document.source));
    Alcotest.test_case "unknown directive reports its line" `Quick (fun () ->
        match Parser.parse "source relation r(a)\nnonsense here\n" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> Alcotest.(check int) "line 2" 2 e.Parser.line);
    Alcotest.test_case "tuple of unknown relation rejected" `Quick (fun () ->
        match Parser.parse "source tuple r(a)\n" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e ->
          Alcotest.(check bool)
            "mentions r" true
            (String.length e.Parser.message > 0));
    Alcotest.test_case "arity mismatch rejected" `Quick (fun () ->
        match Parser.parse "source relation r(a, b)\nsource tuple r(x)\n" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> Alcotest.(check int) "line 2" 2 e.Parser.line);
    Alcotest.test_case "tgd variable convention" `Quick (fun () ->
        match Parser.parse_tgd "t: r(X, c) -> s(X, Y)" with
        | Error m -> Alcotest.fail m
        | Ok tgd ->
          Alcotest.(check bool) "X is frontier" true
            (Logic.String_set.mem "X" (Logic.Tgd.frontier_vars tgd));
          Alcotest.(check bool) "Y is existential" true
            (Logic.String_set.mem "Y" (Logic.Tgd.existential_vars tgd));
          Alcotest.(check bool) "not full" false (Logic.Tgd.is_full tgd));
    Alcotest.test_case "underscore starts a variable" `Quick (fun () ->
        match Parser.parse_tgd "t: r(_x) -> s(_x)" with
        | Error m -> Alcotest.fail m
        | Ok tgd -> Alcotest.(check bool) "full" true (Logic.Tgd.is_full tgd));
    Alcotest.test_case "quoted constant spelling like a variable roundtrips"
      `Quick (fun () ->
        (* the escape hatch for constants the bare grammar would read as
           variables; Term.pp emits the quotes, parse_tgd strips them *)
        let adversarial =
          Logic.Tgd.make ~label:"t"
            ~body:[ Logic.Atom.make "r" [ Logic.Term.Cst "__frz_x" ] ]
            ~head:[ Logic.Atom.make "s" [ Logic.Term.Cst "__frz_x" ] ]
            ()
        in
        let printed = Format.asprintf "%a" Logic.Tgd.pp adversarial in
        (match Parser.parse_tgd printed with
        | Error m -> Alcotest.fail m
        | Ok tgd ->
          Alcotest.(check bool)
            "same tgd" true
            (Logic.Tgd.equal adversarial tgd));
        match Parser.parse_tgd "t: r(__frz_x) -> s(__frz_x)" with
        | Error m -> Alcotest.fail m
        | Ok bare ->
          Alcotest.(check bool)
            "bare spelling stays a variable" false
            (Logic.Tgd.equal adversarial bare));
    Alcotest.test_case "malformed tgd reports error" `Quick (fun () ->
        Alcotest.(check bool)
          "no arrow" true
          (Result.is_error (Parser.parse_tgd "t: r(X), s(X)"));
        Alcotest.(check bool)
          "bad atom" true
          (Result.is_error (Parser.parse_tgd "t: r(X -> s(X)")));
    Alcotest.test_case "multi-atom tgd with joins parses" `Quick (fun () ->
        match Parser.parse_tgd "me: a(X, F), b(F, Y) -> t(X, Y)" with
        | Error m -> Alcotest.fail m
        | Ok tgd ->
          Alcotest.(check int) "two body atoms" 2 (List.length tgd.Logic.Tgd.body);
          Alcotest.(check bool) "full" true (Logic.Tgd.is_full tgd));
    Alcotest.test_case "duplicate relation with same signature tolerated"
      `Quick (fun () ->
        let doc =
          parse_ok "source relation r(a)\nsource relation r(a)\n"
        in
        Alcotest.(check int) "one" 1 (Schema.size doc.Document.source));
    Alcotest.test_case "conflicting relation signature rejected" `Quick
      (fun () ->
        match Parser.parse "source relation r(a)\nsource relation r(a, b)\n" with
        | Ok _ -> Alcotest.fail "expected error"
        | Error e -> Alcotest.(check int) "line 2" 2 e.Parser.line);
  ]

let split_tests =
  [
    Alcotest.test_case "split_on_substring" `Quick (fun () ->
        Alcotest.(check (list string))
          "basic" [ "a"; "b" ]
          (Str_split.split_on_substring "->" "a -> b");
        Alcotest.(check (list string))
          "none" [ "abc" ]
          (Str_split.split_on_substring "->" "abc");
        Alcotest.(check (list string))
          "multi" [ "a"; "b"; "c" ]
          (Str_split.split_on_substring "~>" "a ~> b ~> c"));
  ]

let file_tests =
  [
    Alcotest.test_case "save then parse_file roundtrips" `Quick (fun () ->
        let path = Filename.temp_file "repro_doc" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Document.save path appendix_doc;
            match Parser.parse_file path with
            | Error e -> Alcotest.failf "%a" Parser.pp_error e
            | Ok doc ->
              Alcotest.(check int) "tgds" 2 (List.length doc.Document.tgds);
              Alcotest.(check bool)
                "I" true
                (Relational.Instance.equal doc.Document.instance_i
                   appendix_doc.Document.instance_i)));
  ]

let () =
  Alcotest.run "serialize"
    [
      ("roundtrip", roundtrip_tests);
      ("parser", parser_tests);
      ("split", split_tests);
      ("files", file_tests);
    ]
