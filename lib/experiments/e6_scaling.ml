open Util

let run ?(blocks = [ 1; 2; 4; 8; 16 ]) ?(seed = 1) ctx =
  let rows =
    List.map
      (fun b ->
        let primitives =
          List.map (fun k -> (k, b)) Ibench.Primitive.all
        in
        let config =
          Common.noise_config ~primitives ~seed ~pi_corresp:25 ~pi_errors:10
            ~pi_unexplained:10 ()
        in
        let scenario, gen_ms = Timer.time_ms (fun () -> Ibench.Generator.generate config) in
        let problem, pre_ms =
          Timer.time_ms (fun () -> Common.problem_of_scenario ctx scenario)
        in
        let m = Core.Problem.num_candidates problem in
        let cmd, cmd_ms = Timer.time_ms (fun () -> Core.Cmd.solve problem) in
        let _, exact_ms = Timer.time_ms (fun () -> Core.Exact.solve problem) in
        [
          string_of_int (7 * b);
          string_of_int m;
          string_of_int cmd.Core.Cmd.num_vars;
          string_of_int (cmd.Core.Cmd.num_potentials + cmd.Core.Cmd.num_constraints);
          Common.fmt_ms gen_ms;
          Common.fmt_ms pre_ms;
          Common.fmt_ms cmd_ms;
          Common.fmt_ms exact_ms;
        ])
      blocks
  in
  Table.make ~id:"E6" ~title:"runtime scaling with scenario size"
    ~header:
      [
        "primitives"; "candidates"; "model vars"; "ground rules"; "gen ms";
        "precompute ms"; "CMD ms"; "exact ms";
      ]
    ~notes:
      [ "noise: piCorresp 25%, piErrors 10%, piUnexplained 10%" ]
    rows
