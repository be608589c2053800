open Relational
open Logic

let prefix_vars prefix atoms =
  List.map
    (fun (a : Atom.t) ->
      { a with
        Atom.args =
          Array.map
            (function
              | Term.Var v -> Term.Var (prefix ^ v)
              | Term.Cst _ as cst -> cst)
            a.Atom.args
      })
    atoms

(* [from_sa] are the correspondences out of [sa] *)
let candidate_of_pair (sa : Assoc.t) (ta : Assoc.t) from_sa =
  let relevant =
    List.filter
      (fun (c : Correspondence.t) -> Assoc.mem ta c.Correspondence.tgt_rel)
      from_sa
  in
  if relevant = [] then None
  else begin
    (* map each target variable (class) to a source variable, first
       correspondence wins *)
    let mapping = Hashtbl.create 8 in
    List.iter
      (fun (c : Correspondence.t) ->
        match
          ( Assoc.var_of sa c.Correspondence.src_rel c.Correspondence.src_attr,
            Assoc.var_of ta c.Correspondence.tgt_rel c.Correspondence.tgt_attr )
        with
        | Some sv, Some tv ->
          if not (Hashtbl.mem mapping ("T" ^ tv)) then
            Hashtbl.add mapping ("T" ^ tv) ("S" ^ sv)
        | None, _ | _, None -> ())
      relevant;
    let body = prefix_vars "S" sa.Assoc.atoms in
    let head =
      prefix_vars "T" ta.Assoc.atoms
      |> List.map (fun (a : Atom.t) ->
             { a with
               Atom.args =
                 Array.map
                   (function
                     | Term.Var v -> (
                       match Hashtbl.find_opt mapping v with
                       | Some sv -> Term.Var sv
                       | None -> Term.Var v)
                     | Term.Cst _ as cst -> cst)
                   a.Atom.args
             })
    in
    Some (Tgd.make ~body ~head ())
  end

(* The multiset of atom shapes (relation plus constant pattern) on each side,
   as one string. [Tgd.equal_up_to_renaming a b] implies
   [shape_key a = shape_key b], so a duplicate always lands in the bucket of
   the candidate it duplicates. *)
let shape_key (t : Tgd.t) =
  let b = Buffer.create 64 in
  let side atoms =
    List.map
      (fun (a : Atom.t) ->
        Buffer.clear b;
        Buffer.add_string b a.Atom.rel;
        Array.iter
          (function
            | Term.Var _ -> Buffer.add_string b "|_"
            | Term.Cst c ->
              Buffer.add_char b '|';
              Buffer.add_string b (string_of_int (String.length c));
              Buffer.add_char b ':';
              Buffer.add_string b c)
          a.Atom.args;
        Buffer.contents b)
      atoms
    |> List.sort String.compare |> String.concat ";"
  in
  side t.Tgd.body ^ " -> " ^ side t.Tgd.head

let pairs_counter = Telemetry.Counter.make "candgen.pairs"

let duplicates_counter = Telemetry.Counter.make "candgen.duplicates"

let renaming_checks_counter = Telemetry.Counter.make "candgen.renaming_checks"

let generate ~source ~target ~src_fkeys ~tgt_fkeys ~corrs =
  Telemetry.with_span "candgen" @@ fun () ->
  let src_assocs = Assoc.all ~schema:source ~fkeys:src_fkeys in
  let tgt_assocs = Assoc.all ~schema:target ~fkeys:tgt_fkeys in
  let raw =
    List.concat_map
      (fun sa ->
        let from_sa =
          List.filter
            (fun (c : Correspondence.t) -> Assoc.mem sa c.Correspondence.src_rel)
            corrs
        in
        List.filter_map (fun ta -> candidate_of_pair sa ta from_sa) tgt_assocs)
      src_assocs
  in
  (* kept candidates by shape key, newest first within a bucket; a raw
     candidate is a duplicate iff it renames onto one of its bucket *)
  let buckets = Hashtbl.create 16 in
  let checks = ref 0 in
  let deduped =
    List.fold_left
      (fun acc tgd ->
        let key = shape_key tgd in
        let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
        if
          List.exists
            (fun kept ->
              incr checks;
              Tgd.equal_up_to_renaming tgd kept)
            bucket
        then acc
        else begin
          Hashtbl.replace buckets key (tgd :: bucket);
          tgd :: acc
        end)
      [] raw
    |> List.rev
  in
  if Telemetry.enabled () then begin
    let n_raw = List.length raw in
    Telemetry.Counter.add pairs_counter n_raw;
    Telemetry.Counter.add duplicates_counter (n_raw - List.length deduped);
    Telemetry.Counter.add renaming_checks_counter !checks
  end;
  List.mapi
    (fun i tgd -> Tgd.relabel (Printf.sprintf "theta%d" (i + 1)) tgd)
    deduped

let correspondences_of_tgd ~source ~target (tgd : Tgd.t) =
  let positions schema atoms =
    List.concat_map
      (fun (a : Atom.t) ->
        match Schema.find_opt schema a.Atom.rel with
        | None -> []
        | Some r ->
          Array.to_list a.Atom.args
          |> List.mapi (fun i term -> (a.Atom.rel, r.Relation.attrs.(i), term))
          |> List.filter_map (fun (rel, attr, term) ->
                 match term with
                 | Term.Var v -> Some (rel, attr, v)
                 | Term.Cst _ -> None))
      atoms
  in
  let src_positions = positions source tgd.Tgd.body in
  let tgt_positions = positions target tgd.Tgd.head in
  List.concat_map
    (fun (tr, ta, tv) ->
      List.filter_map
        (fun (sr, sa, sv) ->
          if String.equal sv tv then
            Some (Correspondence.make ~src:(sr, sa) ~tgt:(tr, ta))
          else None)
        src_positions)
    tgt_positions
  |> List.sort_uniq Correspondence.compare
