(* CLI for the experiment suite: run all tables/figures or a selection by
   id, in plain text, markdown or CSV. *)

open Cmdliner

type format =
  | Text
  | Markdown
  | Csv

let render format table =
  match format with
  | Text -> Experiments.Table.to_string table
  | Markdown -> Experiments.Table.to_markdown table
  | Csv -> Experiments.Table.to_csv table

let run_ids format jobs cache trace ids =
  Cli.install_trace trace;
  let cache = Cli.resolve_cache cache in
  Cli.install_signal_flush ();
  let ctx =
    Experiments.Common.Ctx.create ?cache ~jobs:(Cli.resolve_jobs jobs) ()
  in
  let to_run =
    match ids with
    | [] -> List.map (fun (id, _, run) -> (id, run)) Experiments.Registry.all
    | ids ->
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some run -> (String.uppercase_ascii id, run)
          | None ->
            Printf.eprintf "unknown experiment %s; known:\n" id;
            List.iter
              (fun (id, desc, _) -> Printf.eprintf "  %-4s %s\n" id desc)
              Experiments.Registry.all;
            exit 2)
        ids
  in
  (* the requested experiments form one batch: a lone one runs on the
     caller and fans its per-seed solves out; several run on the workers,
     each rendered off-line and printed in request order *)
  Fun.protect
    ~finally:(fun () -> Experiments.Common.Ctx.shutdown ctx)
    (fun () ->
      Experiments.Common.parallel_map ctx
        (fun (_, run) -> render format (run ctx))
        to_run
      |> List.iter print_endline)

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID"
         ~doc:"Experiment ids (E1..E15); all when omitted.")

let fmt_conv =
  Arg.conv
    ( (function
        | "text" -> Ok Text
        | "md" | "markdown" -> Ok Markdown
        | "csv" -> Ok Csv
        | s -> Error (`Msg (Printf.sprintf "unknown format %s" s))),
      fun ppf f ->
        Format.pp_print_string ppf
          (match f with Text -> "text" | Markdown -> "md" | Csv -> "csv") )

let format =
  Arg.(value & opt fmt_conv Text & info [ "format" ] ~docv:"FMT"
         ~doc:"Output format: text, md or csv.")

let cmd =
  let doc = "Run the reproduction's experiment suite" in
  Cmd.v (Cmd.info "run_experiments" ~doc)
    Term.(const run_ids $ format $ Cli.jobs $ Cli.cache $ Cli.trace $ ids)

let () = exit (Cmd.eval cmd)
