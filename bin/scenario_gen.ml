(* Generate an iBench-style scenario and write it as a scenario document. *)

open Cmdliner

let parse_primitives spec =
  (* "CP=2,ME=1" *)
  let parts = String.split_on_char ',' spec in
  let parse_part part =
    match String.split_on_char '=' (String.trim part) with
    | [ kind; count ] -> (
      match Ibench.Primitive.of_string kind, int_of_string_opt count with
      | Some k, Some n when n >= 0 -> Ok (k, n)
      | None, _ -> Error (Printf.sprintf "unknown primitive %s" kind)
      | _, None -> Error (Printf.sprintf "bad count %s" count)
      | Some _, Some _ -> Error (Printf.sprintf "negative count in %s" part))
    | [ kind ] -> (
      match Ibench.Primitive.of_string kind with
      | Some k -> Ok (k, 1)
      | None -> Error (Printf.sprintf "unknown primitive %s" kind))
    | _ -> Error (Printf.sprintf "bad primitive spec %s" part)
  in
  List.fold_left
    (fun acc part ->
      match acc, parse_part part with
      | Error _, _ -> acc
      | _, Error e -> Error e
      | Ok l, Ok p -> Ok (l @ [ p ]))
    (Ok []) parts

let run primitives seed cache trace rows pi_corresp pi_errors pi_unexplained
    stats output =
 try
  Cli.install_trace trace;
  let cache = Cli.resolve_cache cache in
  let primitives =
    match primitives with
    | None -> List.map (fun k -> (k, 1)) Ibench.Primitive.all
    | Some spec -> (
      match parse_primitives spec with
      | Ok l -> l
      | Error msg -> Cli.die "%s" msg)
  in
  let config =
    {
      Ibench.Config.default with
      Ibench.Config.primitives;
      seed;
      rows_per_relation = rows;
      pi_corresp;
      pi_errors;
      pi_unexplained;
    }
  in
  (match Ibench.Config.validate config with
  | Ok () -> ()
  | Error msg -> Cli.die "scenario_gen: invalid configuration: %s" msg);
  let s = Ibench.Generator.generate config in
  let doc =
    {
      Serialize.Document.source = s.Ibench.Scenario.source;
      target = s.Ibench.Scenario.target;
      src_fkeys = s.Ibench.Scenario.src_fkeys;
      tgt_fkeys = s.Ibench.Scenario.tgt_fkeys;
      correspondences = s.Ibench.Scenario.correspondences;
      tgds = s.Ibench.Scenario.candidates;
      instance_i = s.Ibench.Scenario.instance_i;
      instance_j = s.Ibench.Scenario.instance_j;
    }
  in
  Format.eprintf "%a@." Ibench.Scenario.pp_summary s;
  if stats then begin
    (* chase each candidate (through the evaluation cache, when one is
       configured) and report what the selection pipeline would see *)
    let p =
      Core.Problem.make
        ?cache
        ~source:s.Ibench.Scenario.instance_i ~j:s.Ibench.Scenario.instance_j
        s.Ibench.Scenario.candidates
    in
    Format.eprintf "candidate statistics:@.";
    Array.iter
      (fun (st : Cover.tgd_stats) ->
        Format.eprintf "  %-10s covers=%d errors=%d produced=%d size=%d@."
          st.Cover.tgd.Logic.Tgd.label
          (Array.length st.Cover.rows)
          (Cover.error_count st) st.Cover.produced st.Cover.size)
      p.Core.Problem.stats
  end;
  match output with
  | None -> print_string (Serialize.Document.to_string doc)
  | Some path -> Serialize.Document.save path doc
 with Sys_error msg ->
  (* an unwritable --output path is a usage error, not a crash *)
  Cli.die "scenario_gen: %s" msg

let primitives =
  Arg.(value & opt (some string) None & info [ "p"; "primitives" ]
         ~docv:"SPEC" ~doc:"Primitive counts, e.g. 'CP=2,ME=1,VP=1'; one of each when omitted.")

let seed = Cli.seed ~default:42 ~doc:"Generator seed."

let rows = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Source rows per relation.")

let pi name doc = Arg.(value & opt int 0 & info [ name ] ~doc)

let stats =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Chase each candidate and print its coverage/error statistics \
               to stderr (uses the evaluation cache when one is configured).")

let output =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output file; stdout when omitted.")

let cmd =
  let doc = "Generate iBench-style mapping-selection scenarios" in
  Cmd.v
    (Cmd.info "scenario_gen" ~doc)
    Term.(
      const run $ primitives $ seed $ Cli.cache $ Cli.trace $ rows
      $ pi "pi-corresp" "Percent of target relations with random correspondences."
      $ pi "pi-errors" "Percent of non-certain error tuples deleted from J."
      $ pi "pi-unexplained" "Percent of non-certain unexplained tuples added to J."
      $ stats $ output)

let () = exit (Cmd.eval cmd)
