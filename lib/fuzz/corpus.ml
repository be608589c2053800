open Relational
open Logic

type entry = {
  oracle : string;
  detail : string;
  case : Case.t;
}

let filename e =
  Printf.sprintf "%s__%s__s%d.scn" e.oracle e.case.Case.tag e.case.Case.seed

(* --- schema inference --------------------------------------------------- *)

(* The case format stores bare tuples and tgds; the Document format wants
   schemas. Infer them: every relation mentioned in a candidate body or a
   source tuple is a source relation, every relation in a head or a target
   tuple is a target one, with attributes a1..ak. Arities must agree across
   mentions (the generator guarantees this). *)
let infer_schemas (m : Case.mapping) =
  let add tbl name arity =
    match Hashtbl.find_opt tbl name with
    | None -> Hashtbl.replace tbl name arity
    | Some a when a = arity -> ()
    | Some a ->
      invalid_arg
        (Printf.sprintf "Corpus: relation %s used with arities %d and %d" name
           a arity)
  in
  let src = Hashtbl.create 8 and tgt = Hashtbl.create 8 in
  List.iter
    (fun (t : Tgd.t) ->
      List.iter (fun (a : Atom.t) -> add src a.Atom.rel (Atom.arity a)) t.Tgd.body;
      List.iter (fun (a : Atom.t) -> add tgt a.Atom.rel (Atom.arity a)) t.Tgd.head)
    m.Case.candidates;
  Instance.iter (fun t -> add src t.Tuple.rel (Tuple.arity t)) m.Case.source;
  Instance.iter (fun t -> add tgt t.Tuple.rel (Tuple.arity t)) m.Case.j;
  let schema tbl =
    Hashtbl.fold
      (fun name arity acc ->
        Relation.make name
          (List.init arity (fun i -> Printf.sprintf "a%d" (i + 1)))
        :: acc)
      tbl []
    |> List.sort (fun (a : Relation.t) b -> compare a.Relation.name b.Relation.name)
    |> Schema.of_relations
  in
  (schema src, schema tgt)

(* --- rendering ----------------------------------------------------------- *)

let first_line s =
  match String.index_opt s '\n' with
  | None -> s
  | Some i -> String.sub s 0 i

let to_string e =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# cmd-fuzz counterexample; replay with: fuzz_run --replay <this file>";
  line "oracle %s" e.oracle;
  line "seed %d" e.case.Case.seed;
  line "tag %s" e.case.Case.tag;
  (match first_line e.detail with
  | "" -> ()
  | d -> line "detail %s" d);
  (match e.case.Case.payload with
  | Case.Mapping m ->
    line "payload mapping";
    line "weights %d %d %d" m.Case.weights.Core.Problem.w_unexplained
      m.Case.weights.Core.Problem.w_errors m.Case.weights.Core.Problem.w_size;
    line "---";
    let source, target = infer_schemas m in
    let doc =
      {
        Serialize.Document.empty with
        Serialize.Document.source;
        target;
        tgds = m.Case.candidates;
        instance_i = m.Case.source;
        instance_j = m.Case.j;
      }
    in
    Buffer.add_string buf (Serialize.Document.to_string doc)
  | Case.Multihop mh ->
    line "payload multihop";
    line "weights %d %d %d" mh.Case.hop_weights.Core.Problem.w_unexplained
      mh.Case.hop_weights.Core.Problem.w_errors
      mh.Case.hop_weights.Core.Problem.w_size;
    line "hops %d" (List.length mh.Case.hops);
    (* One document section per hop, '---'-separated: hop k's tgds and its
       observed instance as instance_j; instance_i repeats the hop's input
       (the initial instance for hop 1) so each section reads standalone. *)
    let _ =
      List.fold_left
        (fun input (tgds, observed) ->
          line "---";
          let source, target =
            infer_schemas
              {
                Case.source = input;
                j = observed;
                candidates = tgds;
                weights = mh.Case.hop_weights;
              }
          in
          let doc =
            {
              Serialize.Document.empty with
              Serialize.Document.source;
              target;
              tgds;
              instance_i = input;
              instance_j = observed;
            }
          in
          Buffer.add_string buf (Serialize.Document.to_string doc);
          observed)
        mh.Case.initial mh.Case.hops
    in
    ()
  | Case.Setcover s ->
    line "payload setcover";
    line "budget %d" s.Core.Setcover.budget;
    line "universe%s"
      (String.concat "" (List.map (fun e -> " " ^ e) s.Core.Setcover.universe));
    List.iter
      (fun (name, elems) ->
        line "set %s%s" name
          (String.concat "" (List.map (fun e -> " " ^ e) elems)))
      s.Core.Setcover.sets);
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------- *)

let ( let* ) = Result.bind

let split_words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

(* Split a header line into directive and remainder. *)
let directive line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let of_string text =
  let lines = String.split_on_char '\n' text in
  (* Header: everything up to the "---" separator (or end of file for
     setcover entries, which have no document section). *)
  let rec split_header acc = function
    | [] -> (List.rev acc, [])
    | "---" :: rest -> (List.rev acc, rest)
    | l :: rest -> split_header (l :: acc) rest
  in
  let header, body = split_header [] lines in
  let header =
    List.filter
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      header
  in
  let fields = List.map directive header in
  let find key = List.assoc_opt key fields in
  let require key =
    match find key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing '%s' header" key)
  in
  let int_field key v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad integer in '%s %s'" key v)
  in
  let* oracle = require "oracle" in
  let* seed = Result.bind (require "seed") (int_field "seed") in
  let* tag = require "tag" in
  let detail = Option.value (find "detail") ~default:"" in
  let* payload_kind = require "payload" in
  let* payload =
    match payload_kind with
    | "mapping" ->
      let* weights =
        match find "weights" with
        | None -> Ok Core.Problem.default_weights
        | Some w -> (
          match List.map int_of_string_opt (split_words w) with
          | [ Some w1; Some w2; Some w3 ] ->
            Ok { Core.Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
          | _ -> Error (Printf.sprintf "bad 'weights %s'" w))
      in
      let* doc =
        match Serialize.Parser.parse (String.concat "\n" body) with
        | Ok doc -> Ok doc
        | Error e -> Error (Format.asprintf "%a" Serialize.Parser.pp_error e)
      in
      Ok
        (Case.Mapping
           {
             Case.source = doc.Serialize.Document.instance_i;
             j = doc.Serialize.Document.instance_j;
             candidates = doc.Serialize.Document.tgds;
             weights;
           })
    | "multihop" ->
      let* weights =
        match find "weights" with
        | None -> Ok Core.Problem.default_weights
        | Some w -> (
          match List.map int_of_string_opt (split_words w) with
          | [ Some w1; Some w2; Some w3 ] ->
            Ok { Core.Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
          | _ -> Error (Printf.sprintf "bad 'weights %s'" w))
      in
      let* n = Result.bind (require "hops") (int_field "hops") in
      (* the body is one '---'-separated document section per hop *)
      let rec split_sections acc cur = function
        | [] -> List.rev (List.rev cur :: acc)
        | "---" :: rest -> split_sections (List.rev cur :: acc) [] rest
        | l :: rest -> split_sections acc (l :: cur) rest
      in
      let sections =
        split_sections [] [] body
        |> List.filter (fun ls -> List.exists (fun l -> String.trim l <> "") ls)
      in
      if List.length sections <> n then
        Error
          (Printf.sprintf "expected %d hop sections, found %d" n
             (List.length sections))
      else
        let* docs =
          List.fold_left
            (fun acc section ->
              let* docs = acc in
              match Serialize.Parser.parse (String.concat "\n" section) with
              | Ok doc -> Ok (doc :: docs)
              | Error e ->
                Error (Format.asprintf "%a" Serialize.Parser.pp_error e))
            (Ok []) sections
          |> Result.map List.rev
        in
        let initial =
          match docs with
          | d :: _ -> d.Serialize.Document.instance_i
          | [] -> Instance.empty
        in
        Ok
          (Case.Multihop
             {
               Case.initial;
               hops =
                 List.map
                   (fun (d : Serialize.Document.t) ->
                     ( d.Serialize.Document.tgds,
                       d.Serialize.Document.instance_j ))
                   docs;
               hop_weights = weights;
             })
    | "setcover" ->
      let* budget = Result.bind (require "budget") (int_field "budget") in
      let universe =
        match find "universe" with None -> [] | Some u -> split_words u
      in
      let sets =
        List.filter_map
          (fun (key, v) ->
            if key <> "set" then None
            else
              match split_words v with
              | [] -> None
              | name :: elems -> Some (name, elems))
          fields
      in
      if sets = [] then Error "setcover entry has no 'set' lines"
      else Ok (Case.Setcover { Core.Setcover.universe; sets; budget })
    | k -> Error (Printf.sprintf "unknown payload kind '%s'" k)
  in
  Ok { oracle; detail; case = { Case.seed; tag; payload } }

(* --- filesystem ---------------------------------------------------------- *)

let save ~dir e =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename e) in
  let oc = open_out path in
  output_string oc (to_string e);
  close_out oc;
  path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text -> (
    match of_string text with
    | Ok e -> Ok e
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let scenario_of_string text =
  match Serialize.Parser.parse text with
  | Ok doc -> Ok (Case.of_document doc)
  | Error e -> Error (Format.asprintf "%a" Serialize.Parser.pp_error e)

let load_scenario path =
  if Filename.check_suffix path ".scn" then
    Result.map (fun e -> e.case.Case.payload) (load path)
  else
    match read_file path with
    | exception Sys_error msg -> Error msg
    | text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (scenario_of_string text)

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then Ok []
  else
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".scn")
      |> List.sort compare
    in
    List.fold_left
      (fun acc f ->
        let* entries = acc in
        let* e = load (Filename.concat dir f) in
        Ok (e :: entries))
      (Ok []) files
    |> Result.map List.rev
