(* Every runner is wrapped in an [experiment.<id>] span at registration, so
   both the `find` path (single ids from the CLI) and `run_all` are traced. *)
let spanned (id, desc, run) =
  ( id,
    desc,
    fun ctx -> Telemetry.with_span ("experiment." ^ id) (fun () -> run ctx) )

let all =
  List.map spanned
  @@ [
    ("E1", "appendix worked example: the Eq. 9 objective table",
     E1_appendix_example.run);
    ("E2", "Table I: scenario generation parameters", E2_parameters.run);
    ("E3", "figure: quality vs piErrors", E3_errors.run);
    ("E4", "figure: quality vs piUnexplained", E4_unexplained.run);
    ("E5", "figure: quality vs piCorresp", E5_corresp.run);
    ("E6", "figure: runtime scaling", (fun ctx -> E6_scaling.run ctx));
    ("E7", "table: quality per primitive",
     (fun ctx -> E7_per_primitive.run ctx));
    ("E8", "figure: CMD vs exact optimum",
     (fun ctx -> E8_relaxation_gap.run ctx));
    ("E9", "Theorem 1: SET COVER reduction", (fun ctx -> E9_setcover.run ctx));
    ("E10", "ablation: CMD rounding strategy", (fun ctx -> E10_rounding.run ctx));
    ("E11", "ablation: coverage semantics", (fun ctx -> E11_semantics.run ctx));
    ("E12", "weighted objective sensitivity", (fun ctx -> E12_weights.run ctx));
    ("E13", "Eq. 4 fast path on full tgds",
     (fun ctx -> E13_full_fastpath.run ctx));
    ("E14", "weight calibration on labelled scenarios",
     (fun ctx -> E14_weight_tuning.run ctx));
    ("E15", "multi-hop: composed vs hop-by-hop selection",
     (fun ctx -> E15_multihop.run ctx));
  ]

let find id =
  List.find_map
    (fun (id', _, run) ->
      if String.equal (String.uppercase_ascii id) id' then Some run else None)
    all

(* Experiments are independent of one another, so they form one batch on
   the context's pool; the tables are rendered off-formatter and printed in
   registry order, whatever the completion order. *)
let run_all ctx ppf =
  Common.parallel_map ctx
    (fun (_, _, run) -> Format.asprintf "%a" Table.pp (run ctx))
    all
  |> List.iter (Format.fprintf ppf "%s@.")
