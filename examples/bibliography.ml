(* Bibliography integration — the paper's motivating scenario, end to end
   with no hand-written mapping.

   A DBLP-style source (one wide relation per publication type) is mapped
   into a normalised target (publications, people, authorship). From
   attribute correspondences alone, Clio-style generation derives the
   candidate st tgds and CMD selects the mapping that best explains a small
   data example.

   Run with: dune exec examples/bibliography.exe *)

open Relational

let source =
  Schema.of_relations
    [
      Relation.make "inproceedings" [ "key"; "title"; "booktitle"; "year"; "author" ];
      Relation.make "articles" [ "key"; "title"; "journal"; "year"; "author" ];
    ]

let target =
  Schema.of_relations
    [
      Relation.make "publication" [ "pid"; "title"; "year" ];
      Relation.make "person" [ "author" ];
      Relation.make "authored" [ "pid"; "author" ];
      Relation.make "venue" [ "vid"; "booktitle" ];
    ]

(* publication/authored join on pid; authored references person *)
let tgt_fkeys =
  [
    Candgen.Fkey.make ~from:("authored", "pid") ~to_:("publication", "pid");
    Candgen.Fkey.make ~from:("authored", "author") ~to_:("person", "author");
  ]

let conference_papers =
  [
    ("dblp:kim17", "Collective Schema Mapping", "ICDE", "2017", "Kimmig");
    ("dblp:mil98", "Schema Equivalence", "VLDB", "1998", "Miller");
    ("dblp:pop02", "Translating Web Data", "VLDB", "2002", "Popa");
    ("dblp:aro15", "The iBench Generator", "VLDB", "2015", "Arocena");
    ("dblp:ale08", "STBenchmark", "VLDB", "2008", "Alexe");
  ]

let journal_articles =
  [
    ("dblp:fag05", "Data Exchange Semantics", "TODS", "2005", "Fagin");
    ("dblp:get07", "Statistical Relational Learning", "MLJ", "2007", "Getoor");
    ("dblp:ber11", "Hinge-Loss MRFs", "JMLR", "2011", "Bach");
  ]

let instance_i =
  Instance.of_tuples
    (List.map
       (fun (k, t, b, y, a) -> Tuple.of_consts "inproceedings" [ k; t; b; y; a ])
       conference_papers
    @ List.map
        (fun (k, t, j, y, a) -> Tuple.of_consts "articles" [ k; t; j; y; a ])
        journal_articles)

(* The target sample: a curator has already integrated most of the library;
   publication ids double as join keys. One conference paper (STBenchmark)
   is missing from the sample — the mapping should survive that. *)
let instance_j =
  let integrated =
    [
      ("p1", "Collective Schema Mapping", "2017", "Kimmig");
      ("p2", "Schema Equivalence", "1998", "Miller");
      ("p3", "Translating Web Data", "2002", "Popa");
      ("p4", "The iBench Generator", "2015", "Arocena");
      ("p5", "Data Exchange Semantics", "2005", "Fagin");
      ("p6", "Statistical Relational Learning", "2007", "Getoor");
      ("p7", "Hinge-Loss MRFs", "2011", "Bach");
    ]
  in
  Instance.of_tuples
    (List.concat_map
       (fun (pid, title, year, author) ->
         [
           Tuple.of_consts "publication" [ pid; title; year ];
           Tuple.of_consts "person" [ author ];
           Tuple.of_consts "authored" [ pid; author ];
         ])
       integrated)

(* The attribute correspondences, as a name-similarity matcher would
   propose them; the last one (title ~> booktitle) is a false match that
   selection has to reject. *)
let corrs =
  let c src tgt = Candgen.Correspondence.make ~src ~tgt in
  [
    c ("articles", "author") ("authored", "author");
    c ("inproceedings", "author") ("authored", "author");
    c ("inproceedings", "author") ("person", "author");
    c ("articles", "title") ("publication", "title");
    c ("articles", "year") ("publication", "year");
    c ("inproceedings", "title") ("publication", "title");
    c ("inproceedings", "year") ("publication", "year");
    c ("inproceedings", "booktitle") ("venue", "booktitle");
    c ("articles", "author") ("person", "author");
    c ("articles", "title") ("venue", "booktitle");
  ]

let () =
  Format.printf "== 1. correspondences ==@.";
  List.iter (fun c -> Format.printf "  %a@." Candgen.Correspondence.pp c) corrs;

  Format.printf "@.== 2. Clio-style candidate generation ==@.";
  let candidates =
    Candgen.Generate.generate ~source ~target ~src_fkeys:[] ~tgt_fkeys ~corrs
  in
  List.iter (fun t -> Format.printf "  %a@." Logic.Tgd.pp t) candidates;

  Format.printf "@.== 3. CMD selects the mapping ==@.";
  let problem = Core.Problem.make ~source:instance_i ~j:instance_j candidates in
  let r = Core.Cmd.solve problem in
  Array.iteri
    (fun i selected ->
      if selected then
        Format.printf "  [selected, in=%.2f] %a@." r.Core.Cmd.fractional.(i)
          Logic.Tgd.pp problem.Core.Problem.candidates.(i))
    r.Core.Cmd.selection;
  Format.printf "  objective: %a@." Core.Objective.pp_breakdown
    (Core.Objective.breakdown problem r.Core.Cmd.selection);

  Format.printf "@.== 4. exchange data with the selected mapping ==@.";
  let mapping =
    List.filteri (fun i _ -> r.Core.Cmd.selection.(i)) candidates
  in
  let exchanged = Chase.universal_solution instance_i mapping in
  Format.printf "%a@." Instance.pp exchanged
