open Relational
open Logic

type entry = {
  name : string;
  description : string;
  doc : Serialize.Document.t;
  ground_truth : Tgd.t list;
}

let v x = Term.Var x

let ground_chase source mapping =
  let triggers = Chase.fire source mapping in
  let skolem = ref 0 in
  List.fold_left
    (fun acc (tr : Chase.Trigger.t) ->
      let mapping = Hashtbl.create 4 in
      List.fold_left
        (fun acc tu ->
          let grounded =
            Tuple.map_values
              (fun value ->
                match value with
                | Value.Const _ -> value
                | Value.Null n -> (
                  match Hashtbl.find_opt mapping n with
                  | Some c -> c
                  | None ->
                    let c = Value.Const (Printf.sprintf "sk%d" !skolem) in
                    incr skolem;
                    Hashtbl.add mapping n c;
                    c))
              tu
          in
          Instance.add grounded acc)
        acc tr.Chase.Trigger.tuples)
    Instance.empty triggers

(* Candidates are generated Clio-style from the entry's own metadata, which
   keeps every entry's candidate set faithful to what the paper's pipeline
   would see. *)
let generate_candidates ~source ~target ~src_fkeys ~tgt_fkeys ~corrs =
  Candgen.Generate.generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs

(* --- 1. the paper's running example ------------------------------------ *)

(* Reconstruction of Figure 1 of the main paper: the appendix uses the
   reduced variant without the leader relation; here we include it, with
   candidates generated from the correspondences. *)
let appendix =
  let source =
    Schema.of_relations [ Relation.make "proj" [ "pname"; "emp"; "org" ] ]
  in
  let target =
    Schema.of_relations
      [
        Relation.make "task" [ "pname"; "emp"; "oid" ];
        Relation.make "org" [ "oid"; "oname" ];
        Relation.make "leader" [ "oid"; "emp" ];
      ]
  in
  let tgt_fkeys =
    [
      Candgen.Fkey.make ~from:("task", "oid") ~to_:("org", "oid");
      Candgen.Fkey.make ~from:("leader", "oid") ~to_:("org", "oid");
    ]
  in
  let corrs =
    [
      Candgen.Correspondence.make ~src:("proj", "pname") ~tgt:("task", "pname");
      Candgen.Correspondence.make ~src:("proj", "emp") ~tgt:("task", "emp");
      Candgen.Correspondence.make ~src:("proj", "org") ~tgt:("org", "oname");
      Candgen.Correspondence.make ~src:("proj", "emp") ~tgt:("leader", "emp");
    ]
  in
  let ground_truth =
    [
      Tgd.make ~label:"mg_appendix"
        ~body:[ Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
        ~head:
          [
            Atom.make "task" [ v "P"; v "E"; v "T" ];
            Atom.make "org" [ v "T"; v "O" ];
          ]
        ()
    ]
  in
  let instance_i =
    Instance.of_tuples
      [
        Tuple.of_consts "proj" [ "BigData"; "Bob"; "IBM" ];
        Tuple.of_consts "proj" [ "ML"; "Alice"; "SAP" ];
      ]
  in
  let instance_j =
    (* Figure 1(c), reconstructed: the curated target the appendix reasons
       about, including the leader tuple the appendix omits. *)
    Instance.of_tuples
      [
        Tuple.of_consts "task" [ "ML"; "Alice"; "111" ];
        Tuple.of_consts "org" [ "111"; "SAP" ];
        Tuple.of_consts "leader" [ "111"; "Alice" ];
        Tuple.of_consts "task" [ "Social"; "Carl"; "222" ];
        Tuple.of_consts "org" [ "222"; "MSR" ];
      ]
  in
  {
    name = "appendix";
    description =
      "the paper's running example (Figure 1, reconstructed), leader \
       relation included";
    doc =
      {
        Serialize.Document.source = source;
        target;
        src_fkeys = [];
        tgt_fkeys;
        correspondences = corrs;
        tgds = generate_candidates ~source ~target ~src_fkeys:[] ~tgt_fkeys ~corrs;
        instance_i;
        instance_j;
      };
    ground_truth;
  }

(* --- 2. bibliography ---------------------------------------------------- *)

let bibliography =
  let source =
    Schema.of_relations
      [
        Relation.make "inproceedings" [ "key"; "title"; "booktitle"; "year"; "author" ];
        Relation.make "articles" [ "key"; "title"; "journal"; "year"; "author" ];
      ]
  in
  let target =
    Schema.of_relations
      [
        Relation.make "publication" [ "pid"; "title"; "year" ];
        Relation.make "person" [ "author" ];
        Relation.make "authored" [ "pid"; "author" ];
      ]
  in
  let tgt_fkeys =
    [
      Candgen.Fkey.make ~from:("authored", "pid") ~to_:("publication", "pid");
      Candgen.Fkey.make ~from:("authored", "author") ~to_:("person", "author");
    ]
  in
  let mg_of src =
    Tgd.make ~label:("mg_" ^ src)
      ~body:[ Atom.make src [ v "K"; v "T"; v "V"; v "Y"; v "A" ] ]
      ~head:
        [
          Atom.make "publication" [ v "P"; v "T"; v "Y" ];
          Atom.make "person" [ v "A" ];
          Atom.make "authored" [ v "P"; v "A" ];
        ]
      ()
  in
  let ground_truth = [ mg_of "inproceedings"; mg_of "articles" ] in
  let corrs =
    List.concat_map
      (Candgen.Generate.correspondences_of_tgd ~source ~target)
      ground_truth
  in
  let instance_i =
    Instance.of_tuples
      [
        Tuple.of_consts "inproceedings"
          [ "kim17"; "Collective_Schema_Mapping"; "ICDE"; "2017"; "Kimmig" ];
        Tuple.of_consts "inproceedings"
          [ "mil98"; "Schema_Equivalence"; "VLDB"; "1998"; "Miller" ];
        Tuple.of_consts "inproceedings"
          [ "pop02"; "Translating_Web_Data"; "VLDB"; "2002"; "Popa" ];
        Tuple.of_consts "articles"
          [ "fag05"; "Data_Exchange_Semantics"; "TODS"; "2005"; "Fagin" ];
        Tuple.of_consts "articles"
          [ "get07"; "Statistical_Relational_Learning"; "MLJ"; "2007"; "Getoor" ];
      ]
  in
  let instance_j = ground_chase instance_i ground_truth in
  {
    name = "bibliography";
    description = "DBLP-style publications normalised into pubs/people/authorship";
    doc =
      {
        Serialize.Document.source = source;
        target;
        src_fkeys = [];
        tgt_fkeys;
        correspondences = corrs;
        tgds =
          generate_candidates ~source ~target ~src_fkeys:[] ~tgt_fkeys ~corrs;
        instance_i;
        instance_j;
      };
    ground_truth;
  }

(* --- 3. HR --------------------------------------------------------------- *)

let hr =
  let source =
    Schema.of_relations
      [
        Relation.make "emp" [ "eid"; "ename"; "dept"; "salary" ];
        Relation.make "dept" [ "did"; "dname"; "mgr" ];
      ]
  in
  let target =
    Schema.of_relations
      [
        Relation.make "staff" [ "sid"; "sname"; "pay" ];
        Relation.make "unit" [ "uid"; "uname" ];
        Relation.make "member_of" [ "sid"; "uid" ];
      ]
  in
  let src_fkeys = [ Candgen.Fkey.make ~from:("emp", "dept") ~to_:("dept", "did") ] in
  let tgt_fkeys =
    [
      Candgen.Fkey.make ~from:("member_of", "sid") ~to_:("staff", "sid");
      Candgen.Fkey.make ~from:("member_of", "uid") ~to_:("unit", "uid");
    ]
  in
  let ground_truth =
    [
      (* the emp ⋈ dept association maps onto the staff/unit/membership
         association; employee and unit ids are invented *)
      Tgd.make ~label:"mg_hr"
        ~body:
          [
            Atom.make "emp" [ v "E"; v "N"; v "D"; v "S" ];
            Atom.make "dept" [ v "D"; v "DN"; v "M" ];
          ]
        ~head:
          [
            Atom.make "staff" [ v "SID"; v "N"; v "S" ];
            Atom.make "unit" [ v "UID"; v "DN" ];
            Atom.make "member_of" [ v "SID"; v "UID" ];
          ]
        ();
    ]
  in
  let corrs =
    List.concat_map
      (Candgen.Generate.correspondences_of_tgd ~source ~target)
      ground_truth
  in
  let instance_i =
    Instance.of_tuples
      [
        Tuple.of_consts "dept" [ "d1"; "Sales"; "e3" ];
        Tuple.of_consts "dept" [ "d2"; "Engineering"; "e4" ];
        Tuple.of_consts "emp" [ "e1"; "Ann"; "d1"; "55k" ];
        Tuple.of_consts "emp" [ "e2"; "Bob"; "d2"; "65k" ];
        Tuple.of_consts "emp" [ "e3"; "Carla"; "d1"; "75k" ];
        Tuple.of_consts "emp" [ "e4"; "Dan"; "d2"; "80k" ];
      ]
  in
  let instance_j = ground_chase instance_i ground_truth in
  {
    name = "hr";
    description = "employees joined with departments, split into staff/unit/membership";
    doc =
      {
        Serialize.Document.source = source;
        target;
        src_fkeys;
        tgt_fkeys;
        correspondences = corrs;
        tgds = generate_candidates ~source ~target ~src_fkeys ~tgt_fkeys ~corrs;
        instance_i;
        instance_j;
      };
    ground_truth;
  }

(* --- 4. flights ----------------------------------------------------------- *)

let flights =
  let source =
    Schema.of_relations
      [
        Relation.make "flight" [ "fno"; "origin"; "dest"; "carrier" ];
        Relation.make "airline" [ "code"; "airline_name" ];
      ]
  in
  let target =
    Schema.of_relations
      [
        Relation.make "route" [ "rid"; "origin"; "dest" ];
        Relation.make "operates" [ "rid"; "airline_name" ];
      ]
  in
  let src_fkeys =
    [ Candgen.Fkey.make ~from:("flight", "carrier") ~to_:("airline", "code") ]
  in
  let tgt_fkeys =
    [ Candgen.Fkey.make ~from:("operates", "rid") ~to_:("route", "rid") ]
  in
  let ground_truth =
    [
      Tgd.make ~label:"mg_flights"
        ~body:
          [
            Atom.make "flight" [ v "F"; v "O"; v "D"; v "C" ];
            Atom.make "airline" [ v "C"; v "AN" ];
          ]
        ~head:
          [
            Atom.make "route" [ v "R"; v "O"; v "D" ];
            Atom.make "operates" [ v "R"; v "AN" ];
          ]
        ();
    ]
  in
  let corrs =
    List.concat_map
      (Candgen.Generate.correspondences_of_tgd ~source ~target)
      ground_truth
  in
  let instance_i =
    Instance.of_tuples
      [
        Tuple.of_consts "airline" [ "LH"; "Lufthansa" ];
        Tuple.of_consts "airline" [ "AC"; "Air_Canada" ];
        Tuple.of_consts "flight" [ "LH456"; "FRA"; "YYZ"; "LH" ];
        Tuple.of_consts "flight" [ "AC873"; "YYZ"; "FRA"; "AC" ];
        Tuple.of_consts "flight" [ "LH100"; "FRA"; "SFO"; "LH" ];
      ]
  in
  let instance_j = ground_chase instance_i ground_truth in
  {
    name = "flights";
    description = "flights with airline lookup, restructured into routes/operators";
    doc =
      {
        Serialize.Document.source = source;
        target;
        src_fkeys;
        tgt_fkeys;
        correspondences = corrs;
        tgds = generate_candidates ~source ~target ~src_fkeys ~tgt_fkeys ~corrs;
        instance_i;
        instance_j;
      };
    ground_truth;
  }

let all = [ appendix; bibliography; hr; flights ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> String.equal e.name name) all

let names () = List.map (fun e -> e.name) all
