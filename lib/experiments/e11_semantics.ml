let semantics_name = function
  | Cover.Corroborated -> "corroborated (paper)"
  | Cover.Strict -> "strict"
  | Cover.Generous -> "generous"

let appendix_degrees semantics =
  let stats =
    Cover.analyze ~semantics ~source:E1_appendix_example.instance_i
      ~j:E1_appendix_example.instance_j
      [ E1_appendix_example.theta1; E1_appendix_example.theta3 ]
  in
  let ml_task = Relational.Tuple.of_consts "task" [ "ML"; "Alice"; "111" ] in
  let degree k =
    Util.Frac.to_string
      (Cover.covers ~j:E1_appendix_example.instance_j stats.(k) ml_task)
  in
  (degree 0, degree 1)

let run ?(seeds = E2_parameters.seeds) ctx =
  let rows =
    List.map
      (fun semantics ->
        let theta1_deg, theta3_deg = appendix_degrees semantics in
        let f1 =
          Util.Stats.mean
            (List.map
               (fun seed ->
                 let s =
                   Ibench.Generator.generate
                     (Common.noise_config ~seed ~pi_corresp:50 ~pi_errors:25
                        ~pi_unexplained:25 ())
                 in
                 let p =
                   Core.Problem.make ~semantics ?cache:(Common.Ctx.cache ctx)
                     ~source:s.Ibench.Scenario.instance_i
                     ~j:s.Ibench.Scenario.instance_j s.Ibench.Scenario.candidates
                 in
                 let r = Core.Cmd.solve p in
                 (Metrics.mapping_level ~candidates:s.Ibench.Scenario.candidates
                    ~truth:s.Ibench.Scenario.ground_truth r.Core.Cmd.selection)
                   .Metrics.f1)
               seeds)
        in
        [
          semantics_name semantics;
          theta1_deg;
          theta3_deg;
          Common.fmt_f f1;
        ])
      [ Cover.Corroborated; Cover.Strict; Cover.Generous ]
  in
  Table.make ~id:"E11" ~title:"ablation: coverage semantics"
    ~header:
      [ "semantics"; "theta1 covers ML task"; "theta3 covers ML task"; "map-F1 (noisy)" ]
    ~notes:
      [
        "the appendix's published degrees are 2/3 for theta1 and 1 for theta3;";
        "only the corroborated semantics reproduces them";
      ]
    rows
