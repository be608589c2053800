(* Data exchange around selection.

   Candidate minimisation (logical implication) prunes a redundant
   candidate before selection starts; CMD selects a mapping from what is
   left; and the selected mapping is then used to exchange the source data
   into the target schema.

   Run with: dune exec examples/data_exchange.exe *)

open Relational
open Logic

let v x = Term.Var x

let () =
  (* the HR scenario from the zoo *)
  let entry = Option.get (Scenarios.Zoo.find "hr") in
  let doc = entry.Scenarios.Zoo.doc in

  Format.printf "== 1. candidate minimisation ==@.";
  (* add a bloated variant of a candidate: same meaning, redundant atom *)
  let bloated =
    Tgd.make ~label:"bloated"
      ~body:
        [
          Atom.make "emp" [ v "E"; v "N"; v "D"; v "S" ];
          Atom.make "emp" [ v "E2"; v "N2"; v "D2"; v "S2" ];
        ]
      ~head:[ Atom.make "staff" [ v "SID"; v "N"; v "S" ] ]
      ()
  in
  let candidates = doc.Serialize.Document.tgds @ [ bloated ] in
  Format.printf "before: %d candidates (one of them bloated)@." (List.length candidates);
  let minimized = Chase.Implication.minimize (List.map Chase.Implication.minimize_tgd candidates) in
  Format.printf "after minimize_tgd + minimize: %d candidates@.@." (List.length minimized);

  Format.printf "== 2. selection on the minimised set ==@.";
  let problem =
    Core.Problem.make ~source:doc.Serialize.Document.instance_i
      ~j:doc.Serialize.Document.instance_j minimized
  in
  let r = Core.Cmd.solve problem in
  let mapping = List.filteri (fun i _ -> r.Core.Cmd.selection.(i)) minimized in
  List.iter (fun t -> Format.printf "selected: %a@." Tgd.pp t) mapping;

  Format.printf "@.== 3. exchange ==@.";
  let exchanged = Chase.universal_solution doc.Serialize.Document.instance_i mapping in
  Format.printf "exchanged (%d tuples, %d distinct unit rows):@."
    (Instance.cardinal exchanged)
    (Tuple.Set.cardinal (Instance.tuples_of exchanged "unit"));
  Format.printf "%a@." Instance.pp exchanged
