type dimension =
  | Errors
  | Unexplained
  | Corresp

let dimension_name = function
  | Errors -> "piErrors"
  | Unexplained -> "piUnexplained"
  | Corresp -> "piCorresp"

let config_of dimension ~seed ~level =
  let pi_errors, pi_unexplained, pi_corresp =
    match dimension with
    | Errors -> (level, 0, 0)
    | Unexplained -> (0, level, 25)
      (* spurious tuples require spurious candidates to exist, hence a fixed
         moderate piCorresp when sweeping piUnexplained *)
    | Corresp -> (0, 0, level)
  in
  Common.noise_config ~seed ~pi_corresp ~pi_errors ~pi_unexplained ()

let run ctx ?(levels = E2_parameters.noise_levels)
    ?(seeds = E2_parameters.seeds)
    ?(solvers = Common.[ Cmd_solver; Greedy_solver; All_candidates ]) ~id
    dimension =
  (* Seeds fan out over the shared pool; regrouping by level below
     preserves seed order, keeping the table identical to a sequential
     sweep. *)
  let per_seed =
    Common.parallel_map ctx
      (fun seed ->
        List.map
          (fun level ->
            let s =
              Ibench.Generator.generate (config_of dimension ~seed ~level)
            in
            let p = Common.problem_of_scenario ctx s in
            ( level,
              List.map (fun solver -> Common.run_solver ctx solver s p) solvers
            ))
          levels)
      seeds
  in
  let solved = List.concat per_seed in
  let rows =
    List.map
      (fun level ->
        let per_seed =
          List.filter_map
            (fun (l, outcomes) -> if l = level then Some outcomes else None)
            solved
        in
        let avg pick i =
          Util.Stats.fmean (fun outcomes -> pick (List.nth outcomes i)) per_seed
        in
        string_of_int level
        :: (List.concat
              (List.mapi
                 (fun i _ ->
                   [
                     Common.fmt_f (avg (fun o -> o.Common.mapping.Metrics.f1) i);
                     Common.fmt_f (avg (fun o -> o.Common.tuples.Metrics.f1) i);
                   ])
                 solvers)))
      levels
  in
  let header =
    dimension_name dimension
    :: List.concat_map
         (fun s ->
           let n = Common.solver_name s in
           [ n ^ " map-F1"; n ^ " tup-F1" ])
         solvers
  in
  Table.make ~id
    ~title:
      (Printf.sprintf "selection quality vs %s (mean over %d seeds)"
         (dimension_name dimension) (List.length seeds))
    ~header
    ~notes:
      (match dimension with
      | Unexplained ->
        [ "piCorresp fixed at 25% so that spurious candidates exist" ]
      | Errors | Corresp -> [])
    rows
