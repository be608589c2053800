(* Metamorphic fuzzing campaigns over generated selection scenarios.

   Output is a pure function of (--seed, --budget, --oracle, --inject-fault)
   — never of --jobs — so CI can diff parallel runs against sequential
   ones. Exit status: 0 clean, 1 oracle failures (counterexamples written to
   the corpus directory), 2 usage errors. *)

open Cmdliner

let die = Cli.die

let resolve_oracles spec =
  match spec with
  | None -> Fuzz.Oracle.all
  | Some spec ->
    String.split_on_char ',' spec
    |> List.map (fun name ->
           let name = String.trim name in
           match Fuzz.Oracle.find name with
           | Some o -> o
           | None ->
             die "unknown oracle '%s' (known: %s)" name
               (String.concat ", " Fuzz.Oracle.names))

let inject fault oracles =
  match fault with
  | None -> oracles
  | Some fault -> (
    match List.assoc_opt fault Fuzz.Oracle.faults with
    | None ->
      die "unknown fault '%s' (known: %s)" fault
        (String.concat ", " (List.map fst Fuzz.Oracle.faults))
    | Some broken ->
      if
        not
          (List.exists
             (fun (o : Fuzz.Oracle.t) -> o.Fuzz.Oracle.name = broken.Fuzz.Oracle.name)
             oracles)
      then
        die "fault '%s' targets oracle '%s', which is not selected" fault
          broken.Fuzz.Oracle.name;
      List.map
        (fun (o : Fuzz.Oracle.t) ->
          if o.Fuzz.Oracle.name = broken.Fuzz.Oracle.name then broken else o)
        oracles)

let replay_paths oracles paths =
  (* a dangling reference is a usage error (exit 2), distinct from oracle
     failures (exit 1) *)
  (match List.filter (fun p -> not (Sys.file_exists p)) paths with
  | [] -> ()
  | missing ->
    die "no such corpus file or directory: %s" (String.concat ", " missing));
  let files =
    List.concat_map
      (fun path ->
        if Sys.file_exists path && Sys.is_directory path then
          match Fuzz.Corpus.load_dir path with
          | Ok entries -> List.map (fun e -> (path, Ok e)) entries
          | Error msg -> [ (path, Error msg) ]
        else [ (path, Fuzz.Corpus.load path) ])
      paths
  in
  let failed = ref false in
  List.iter
    (fun (path, entry) ->
      match entry with
      | Error msg ->
        failed := true;
        Printf.printf "ERROR %s\n" msg
      | Ok e -> (
        match Fuzz.Driver.replay ~oracles e with
        | Ok () ->
          Printf.printf "PASS  %s seed %d (%s)\n" e.Fuzz.Corpus.oracle
            e.Fuzz.Corpus.case.Fuzz.Case.seed path
        | Error msg ->
          failed := true;
          Printf.printf "FAIL  %s seed %d (%s): %s\n" e.Fuzz.Corpus.oracle
            e.Fuzz.Corpus.case.Fuzz.Case.seed path msg))
    files;
  if !failed then 1 else 0

let run seed budget oracle_spec fault jobs cache trace corpus_dir replay
    list_oracles =
  Cli.install_trace trace;
  let cache = Cli.resolve_cache cache in
  Cli.install_signal_flush ();
  if list_oracles then begin
    List.iter
      (fun (o : Fuzz.Oracle.t) ->
        Printf.printf "%-18s %s\n" o.Fuzz.Oracle.name o.Fuzz.Oracle.doc)
      Fuzz.Oracle.all;
    0
  end
  else
    let oracles = inject fault (resolve_oracles oracle_spec) in
    match replay with
    | _ :: _ -> (
      try replay_paths oracles replay
      with Sys_error msg -> die "%s" msg)
    | [] ->
      if budget < 0 then die "--budget must be nonnegative";
      let jobs = Cli.resolve_jobs jobs in
      let summary =
        Parallel.Pool.with_pool ~jobs (fun pool ->
            Fuzz.Driver.run ~pool ?cache ~oracles ~seed ~budget ())
      in
      Format.printf "%a" Fuzz.Driver.pp_summary summary;
      if summary.Fuzz.Driver.failures = [] then 0
      else begin
        let paths = Fuzz.Driver.save_failures ~dir:corpus_dir summary in
        List.iter (Printf.printf "wrote %s\n") paths;
        1
      end

let seed =
  Cli.seed ~default:42
    ~doc:"Campaign seed; case $(i,i) uses the derived seed $(i,derive seed i)."

let budget =
  Arg.(value & opt int 200 & info [ "budget" ] ~doc:"Number of generated cases.")

let oracle =
  Arg.(value & opt (some string) None & info [ "oracle" ] ~docv:"NAMES"
         ~doc:"Comma-separated oracle families to run; all when omitted.")

let fault =
  Arg.(value & opt (some string) None & info [ "inject-fault" ] ~docv:"NAME"
         ~doc:"Replace an oracle with a deliberately broken variant, to exercise the shrink/corpus pipeline.")

let corpus_dir =
  Arg.(value & opt string "corpus" & info [ "corpus" ] ~docv:"DIR"
         ~doc:"Directory where shrunk counterexamples are written.")

let replay =
  Arg.(value & opt_all string [] & info [ "replay" ] ~docv:"PATH"
         ~doc:"Replay a corpus file (or every *.scn of a directory) instead of fuzzing; repeatable.")

let list_oracles =
  Arg.(value & flag & info [ "list-oracles" ] ~doc:"List oracle families and exit.")

let cmd =
  let doc = "Metamorphic fuzzing of the mapping-selection engine" in
  Cmd.v
    (Cmd.info "fuzz_run" ~doc)
    Term.(
      const run $ seed $ budget $ oracle $ fault $ Cli.jobs $ Cli.cache
      $ Cli.trace $ corpus_dir $ replay $ list_oracles)

let () = exit (Cmd.eval' cmd)
