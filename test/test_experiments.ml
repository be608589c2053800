open Util

let frac = Alcotest.testable Frac.pp Frac.equal

(* jobs:1 — the smoke runs stay sequential and never spawn the pool *)
let ctx = Experiments.Common.Ctx.create ~jobs:1 ()

let registry_tests =
  [
    Alcotest.test_case "all experiments but E13 are registered" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "ids in order"
          (List.filter_map
             (fun i -> if i = 13 then None else Some (Printf.sprintf "E%d" i))
             (List.init 15 succ))
          (List.map (fun (id, _, _) -> id) Experiments.Registry.all));
    Alcotest.test_case "find is case-insensitive" `Quick (fun () ->
        Alcotest.(check bool) "e1" true (Experiments.Registry.find "e1" <> None);
        Alcotest.(check bool) "E12" true (Experiments.Registry.find "E12" <> None);
        Alcotest.(check bool) "bogus" true (Experiments.Registry.find "E99" = None));
  ]

let e1_tests =
  [
    Alcotest.test_case "appendix gold values" `Quick (fun () ->
        let values = Experiments.E1_appendix_example.appendix_values () in
        let expected =
          [
            ("{}", Frac.of_int 4);
            ("{theta1}", Frac.make 22 3);
            ("{theta3}", Frac.of_int 8);
            ("{theta1,theta3}", Frac.of_int 12);
          ]
        in
        List.iter2
          (fun (name, got) (name', want) ->
            Alcotest.(check string) "order" name' name;
            Alcotest.check frac name want got)
          values expected);
    Alcotest.test_case "E1 table has four rows" `Quick (fun () ->
        let t = Experiments.E1_appendix_example.run ctx in
        Alcotest.(check int) "rows" 4 (List.length t.Experiments.Table.rows));
  ]

(* The cheap experiments run end-to-end in tests (the sweeps would slow the
   suite down; they are exercised by the bench binary). *)
let smoke_tests =
  [
    Alcotest.test_case "E2 renders" `Quick (fun () ->
        let t = Experiments.E2_parameters.run ctx in
        Alcotest.(check bool)
          "non-empty" true
          (String.length (Experiments.Table.to_string t) > 0));
    Alcotest.test_case "E9 reports no mismatch" `Quick (fun () ->
        let t = Experiments.E9_setcover.run ~count:4 ctx in
        List.iter
          (fun row ->
            match List.rev row with
            | verdict :: _ -> Alcotest.(check string) "ok" "ok" verdict
            | [] -> Alcotest.fail "empty row")
          t.Experiments.Table.rows);
    Alcotest.test_case "E11 appendix degrees per semantics" `Quick (fun () ->
        let t = Experiments.E11_semantics.run ~seeds:[ 1 ] ctx in
        match t.Experiments.Table.rows with
        | [ corr; strict; generous ] ->
          Alcotest.(check (list string))
            "corroborated" [ "2/3"; "1" ]
            [ List.nth corr 1; List.nth corr 2 ];
          Alcotest.(check (list string))
            "strict" [ "2/3"; "2/3" ]
            [ List.nth strict 1; List.nth strict 2 ];
          Alcotest.(check (list string))
            "generous" [ "1"; "1" ]
            [ List.nth generous 1; List.nth generous 2 ]
        | _ -> Alcotest.fail "expected three rows");
    Alcotest.test_case "table renderer aligns ragged rows" `Quick (fun () ->
        let t =
          Experiments.Table.make ~id:"T" ~title:"t" ~header:[ "a"; "b" ]
            [ [ "1" ]; [ "22"; "333"; "4444" ] ]
        in
        let s = Experiments.Table.to_string t in
        Alcotest.(check bool) "renders" true (String.length s > 0));
  ]

let sweep_tests =
  [
    Alcotest.test_case "tiny noise sweep runs end-to-end" `Quick (fun () ->
        let t =
          Experiments.Noise_sweep.run ctx ~levels:[ 0; 50 ] ~seeds:[ 1 ]
            ~solvers:[ Experiments.Common.Greedy_solver ] ~id:"Etest"
            Experiments.Noise_sweep.Errors
        in
        Alcotest.(check int) "two rows" 2 (List.length t.Experiments.Table.rows);
        List.iter
          (fun row ->
            Alcotest.(check int) "level + 2 metrics" 3 (List.length row))
          t.Experiments.Table.rows);
  ]

let () =
  Alcotest.run "experiments"
    [
      ("registry", registry_tests);
      ("e1", e1_tests);
      ("smoke", smoke_tests);
      ("sweeps", sweep_tests);
    ]
