(* Quickstart: the paper's running example, end to end.

   We build the source/target schemas and the data example (I, J) from the
   appendix, write two candidate st tgds, inspect the chase and the Eq. 9
   degrees, print the appendix's objective table, and let CMD pick the best
   mapping — first on the small example (where the empty mapping wins, the
   paper's guard against overfitting) and then with five more ML-like
   projects (where theta3 wins).

   Run with: dune exec examples/quickstart.exe *)

open Relational
open Logic

let v x = Term.Var x

(* --- schemas and data --------------------------------------------------- *)

let source =
  Schema.of_relations [ Relation.make "proj" [ "pname"; "emp"; "org" ] ]

let target =
  Schema.of_relations
    [
      Relation.make "task" [ "pname"; "emp"; "oid" ];
      Relation.make "org" [ "oid"; "oname" ];
    ]

let instance_i =
  Instance.of_tuples
    [
      Tuple.of_consts "proj" [ "BigData"; "Bob"; "IBM" ];
      Tuple.of_consts "proj" [ "ML"; "Alice"; "SAP" ];
    ]

let instance_j =
  Instance.of_tuples
    [
      Tuple.of_consts "task" [ "ML"; "Alice"; "111" ];
      Tuple.of_consts "org" [ "111"; "SAP" ];
      Tuple.of_consts "task" [ "Social"; "Carl"; "222" ];
      Tuple.of_consts "org" [ "222"; "MSR" ];
    ]

(* --- candidate st tgds --------------------------------------------------- *)

let theta1 =
  Tgd.make ~label:"theta1"
    ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
    ~head:[ Atom.make "task" [ v "P"; v "E"; v "T" ] ]
    ()

let theta3 =
  Tgd.make ~label:"theta3"
    ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
    ~head:
      [
        Atom.make "task" [ v "P"; v "E"; v "T" ];
        Atom.make "org" [ v "T"; v "O" ];
      ]
    ()

let candidates = [ theta1; theta3 ]

let () =
  (* sanity: the tgds fit the schemas *)
  List.iter
    (fun tgd ->
      match Tgd.well_formed ~source ~target tgd with
      | Ok () -> ()
      | Error msg -> failwith msg)
    candidates;

  Format.printf "== The data example ==@.";
  Format.printf "I:@.%a@.@.J:@.%a@.@." Instance.pp instance_i Instance.pp instance_j;

  Format.printf "== The candidates and their chase ==@.";
  List.iter
    (fun tgd ->
      let { Chase.solution; _ } = Chase.run instance_i [ tgd ] in
      Format.printf "%a   (size %d)@.K = %a@.@." Tgd.pp tgd (Tgd.size tgd)
        Instance.pp solution)
    candidates;

  Format.printf "== Eq. 9 degrees ==@.";
  let stats = Cover.analyze ~source:instance_i ~j:instance_j candidates in
  Array.iter
    (fun s ->
      Format.printf "%s explains:@." s.Cover.tgd.Tgd.label;
      List.iter
        (fun (t, d) ->
          Format.printf "  %a to degree %a@." Tuple.pp t Util.Frac.pp d)
        (Cover.degrees ~j:instance_j s);
      Format.printf "  errors: %d@." (Cover.error_count s))
    stats;

  Format.printf "@.== The objective table (appendix, Eq. 9) ==@.";
  let problem = Core.Problem.make ~source:instance_i ~j:instance_j candidates in
  List.iter
    (fun (name, idx) ->
      let sel = Core.Problem.selection_of_indices problem idx in
      Format.printf "%-18s %a@." name Core.Objective.pp_breakdown
        (Core.Objective.breakdown problem sel))
    [ ("{}", []); ("{theta1}", [ 0 ]); ("{theta3}", [ 1 ]); ("{theta1,theta3}", [ 0; 1 ]) ];

  Format.printf "@.== CMD on the small example ==@.";
  let report problem =
    let r = Core.Cmd.solve problem in
    Array.iteri
      (fun i tgd ->
        Format.printf "  in(%s) = %.3f  -> %s@." tgd.Tgd.label
          r.Core.Cmd.fractional.(i)
          (if r.Core.Cmd.selection.(i) then "selected" else "dropped"))
      problem.Core.Problem.candidates;
    Format.printf "  objective %a@." Util.Frac.pp r.Core.Cmd.objective
  in
  report problem;
  Format.printf
    "the empty mapping wins: with so little data, both candidates cost more \
     than they explain (the paper's overfitting guard)@.";

  Format.printf "@.== CMD with five more ML-like projects ==@.";
  let extend inst mk =
    List.fold_left
      (fun acc k -> Instance.add (mk (Printf.sprintf "Proj%d" k)) acc)
      inst
      (List.init 5 (fun k -> k))
  in
  let i5 = extend instance_i (fun p -> Tuple.of_consts "proj" [ p; "Alice"; "SAP" ]) in
  let j5 = extend instance_j (fun p -> Tuple.of_consts "task" [ p; "Alice"; "111" ]) in
  report (Core.Problem.make ~source:i5 ~j:j5 candidates);
  Format.printf "now theta3 explains the new tasks fully and wins.@."
