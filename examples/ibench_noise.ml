(* A full iBench scenario under noise: the workload of the paper's
   evaluation section.

   We generate a scenario with all seven primitives, inject metadata noise
   (random correspondences -> spurious candidates) and data noise (deleted
   and added target tuples), then compare CMD against the greedy baseline
   and the select-everything strawman.

   Run with: dune exec examples/ibench_noise.exe *)

let () =
  let config =
    Ibench.Config.with_noise ~pi_corresp:50 ~pi_errors:25 ~pi_unexplained:25
      { Ibench.Config.default with Ibench.Config.rows_per_relation = 15; seed = 3 }
  in
  let s = Ibench.Generator.generate config in
  Format.printf "== scenario ==@.%a@.@." Ibench.Scenario.pp_summary s;
  Format.printf "ground truth MG:@.";
  List.iter (fun t -> Format.printf "  %a@." Logic.Tgd.pp t) s.Ibench.Scenario.ground_truth;

  let problem =
    Core.Problem.make ~source:s.Ibench.Scenario.instance_i
      ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
  in
  Format.printf "@.%d candidates (ground truth at positions %s)@.@."
    (Core.Problem.num_candidates problem)
    (String.concat ", " (List.map string_of_int s.Ibench.Scenario.ground_truth_indices));

  let report name selection =
    let b = Core.Objective.breakdown problem selection in
    Format.printf "%-8s F = %a | mapping %a | tuples %a@." name
      Util.Frac.pp b.Core.Objective.total Metrics.pp
      (Metrics.mapping_level ~candidates:s.Ibench.Scenario.candidates
         ~truth:s.Ibench.Scenario.ground_truth selection)
      Metrics.pp
      (Metrics.tuple_level problem selection)
  in
  let cmd = Core.Cmd.solve problem in
  report "CMD" cmd.Core.Cmd.selection;
  report "greedy" (Core.Greedy.solve problem);
  report "all" (Array.make (Core.Problem.num_candidates problem) true);

  Format.printf "@.CMD selected:@.";
  Array.iteri
    (fun i selected ->
      if selected then
        Format.printf "  in=%.3f %a%s@." cmd.Core.Cmd.fractional.(i) Logic.Tgd.pp
          problem.Core.Problem.candidates.(i)
          (if List.mem i s.Ibench.Scenario.ground_truth_indices then "   [MG]"
           else ""))
    cmd.Core.Cmd.selection
