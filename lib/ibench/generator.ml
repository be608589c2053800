open Relational
open Logic

(* Everything one primitive instance contributes to the scenario. *)
type piece = {
  kind : Primitive.kind;
  src_rels : Relation.t list;
  tgt_rels : Relation.t list;
  src_fkeys : Candgen.Fkey.t list;
  tgt_fkeys : Candgen.Fkey.t list;
  mg : Tgd.t list;
}

let var i = Term.Var (Printf.sprintf "V%d" i)

let evar i = Term.Var (Printf.sprintf "E%d" i)

let attrs n = List.init n (Printf.sprintf "a%d")

let vars n = List.init n var

let rand_range rng (lo, hi) = lo + Random.State.int rng (hi - lo + 1)

(* --- primitive construction ------------------------------------------- *)

let copy_piece kind ~prefix ~src_arity ~extra ~keep =
  (* The CP/ADD/DL/ADL family: copy [keep] of the [src_arity] attributes and
     append [extra] fresh existentially-valued ones. *)
  let src = Relation.make (prefix ^ "_s") (attrs src_arity) in
  let tgt_attrs =
    List.filteri (fun i _ -> i < keep) (attrs src_arity)
    @ List.init extra (Printf.sprintf "x%d")
  in
  let tgt = Relation.make (prefix ^ "_t") tgt_attrs in
  let head_args =
    List.filteri (fun i _ -> i < keep) (vars src_arity)
    @ List.init extra evar
  in
  let mg =
    Tgd.make ~label:(prefix ^ "_mg")
      ~body:[ Atom.make src.Relation.name (vars src_arity) ]
      ~head:[ Atom.make tgt.Relation.name head_args ]
      ()
  in
  {
    kind;
    src_rels = [ src ];
    tgt_rels = [ tgt ];
    src_fkeys = [];
    tgt_fkeys = [];
    mg = [ mg ];
  }

let me_piece ~prefix ~src_arity =
  (* Two source relations joined by a foreign key, merged into one target
     relation; the join columns are not copied. *)
  let a_attrs = attrs (src_arity - 1) @ [ "f" ] in
  let b_attrs = "k" :: List.init (src_arity - 1) (Printf.sprintf "b%d") in
  let a = Relation.make (prefix ^ "_s1") a_attrs in
  let b = Relation.make (prefix ^ "_s2") b_attrs in
  let t_attrs =
    attrs (src_arity - 1) @ List.init (src_arity - 1) (Printf.sprintf "b%d")
  in
  let tgt = Relation.make (prefix ^ "_t") t_attrs in
  let joinv = Term.Var "F" in
  let a_vars = List.init (src_arity - 1) var in
  let b_vars = List.init (src_arity - 1) (fun i -> Term.Var (Printf.sprintf "W%d" i)) in
  let mg =
    Tgd.make ~label:(prefix ^ "_mg")
      ~body:
        [
          Atom.make a.Relation.name (a_vars @ [ joinv ]);
          Atom.make b.Relation.name (joinv :: b_vars);
        ]
      ~head:[ Atom.make tgt.Relation.name (a_vars @ b_vars) ]
      ()
  in
  {
    kind = Primitive.ME;
    src_rels = [ a; b ];
    tgt_rels = [ tgt ];
    src_fkeys = [ Candgen.Fkey.make ~from:(a.Relation.name, "f") ~to_:(b.Relation.name, "k") ];
    tgt_fkeys = [];
    mg = [ mg ];
  }

let vp_piece ~prefix ~src_arity =
  (* One source relation split vertically into two joined target
     relations. *)
  let src = Relation.make (prefix ^ "_s") (attrs src_arity) in
  let h = src_arity / 2 in
  let first = List.filteri (fun i _ -> i < h) (attrs src_arity) in
  let second = List.filteri (fun i _ -> i >= h) (attrs src_arity) in
  let t1 = Relation.make (prefix ^ "_t1") ("k" :: first) in
  let t2 = Relation.make (prefix ^ "_t2") ("k" :: second) in
  let key = Term.Var "K" in
  let first_vars = List.filteri (fun i _ -> i < h) (vars src_arity) in
  let second_vars = List.filteri (fun i _ -> i >= h) (vars src_arity) in
  let mg =
    Tgd.make ~label:(prefix ^ "_mg")
      ~body:[ Atom.make src.Relation.name (vars src_arity) ]
      ~head:
        [
          Atom.make t1.Relation.name (key :: first_vars);
          Atom.make t2.Relation.name (key :: second_vars);
        ]
      ()
  in
  {
    kind = Primitive.VP;
    src_rels = [ src ];
    tgt_rels = [ t1; t2 ];
    src_fkeys = [];
    tgt_fkeys =
      [ Candgen.Fkey.make ~from:(t1.Relation.name, "k") ~to_:(t2.Relation.name, "k") ];
    mg = [ mg ];
  }

let vnm_piece ~prefix ~src_arity =
  (* Vertical partitioning with an N-to-M link relation between the two
     parts. *)
  let src = Relation.make (prefix ^ "_s") (attrs src_arity) in
  let h = src_arity / 2 in
  let first = List.filteri (fun i _ -> i < h) (attrs src_arity) in
  let second = List.filteri (fun i _ -> i >= h) (attrs src_arity) in
  let t1 = Relation.make (prefix ^ "_t1") ("k1" :: first) in
  let t2 = Relation.make (prefix ^ "_t2") ("k2" :: second) in
  let link = Relation.make (prefix ^ "_m") [ "f1"; "f2" ] in
  let k1 = Term.Var "K1" and k2 = Term.Var "K2" in
  let first_vars = List.filteri (fun i _ -> i < h) (vars src_arity) in
  let second_vars = List.filteri (fun i _ -> i >= h) (vars src_arity) in
  let mg =
    Tgd.make ~label:(prefix ^ "_mg")
      ~body:[ Atom.make src.Relation.name (vars src_arity) ]
      ~head:
        [
          Atom.make t1.Relation.name (k1 :: first_vars);
          Atom.make t2.Relation.name (k2 :: second_vars);
          Atom.make link.Relation.name [ k1; k2 ];
        ]
      ()
  in
  {
    kind = Primitive.VNM;
    src_rels = [ src ];
    tgt_rels = [ t1; t2; link ];
    src_fkeys = [];
    tgt_fkeys =
      [
        Candgen.Fkey.make ~from:(link.Relation.name, "f1") ~to_:(t1.Relation.name, "k1");
        Candgen.Fkey.make ~from:(link.Relation.name, "f2") ~to_:(t2.Relation.name, "k2");
      ];
    mg = [ mg ];
  }

let build_piece rng (config : Config.t) kind idx =
  let prefix =
    Printf.sprintf "%s%d" (String.lowercase_ascii (Primitive.to_string kind)) idx
  in
  let n = config.Config.src_arity in
  let deletable = min (snd config.Config.range_delete) (n - 1) in
  let del_range = (min (fst config.Config.range_delete) deletable, deletable) in
  match kind with
  | Primitive.CP -> copy_piece kind ~prefix ~src_arity:n ~extra:0 ~keep:n
  | Primitive.ADD ->
    copy_piece kind ~prefix ~src_arity:n
      ~extra:(rand_range rng config.Config.range_add)
      ~keep:n
  | Primitive.DL ->
    copy_piece kind ~prefix ~src_arity:n ~extra:0
      ~keep:(n - rand_range rng del_range)
  | Primitive.ADL ->
    copy_piece kind ~prefix ~src_arity:n
      ~extra:(rand_range rng config.Config.range_add)
      ~keep:(n - rand_range rng del_range)
  | Primitive.ME -> me_piece ~prefix ~src_arity:n
  | Primitive.VP -> vp_piece ~prefix ~src_arity:n
  | Primitive.VNM -> vnm_piece ~prefix ~src_arity:n

(* --- data generation --------------------------------------------------- *)

(* Generate rows for the source relations of one piece. Relations referenced
   by a foreign key are generated first; foreign-key columns sample from the
   referenced column. *)
let generate_rows rng ~rows piece =
  let fkeys = piece.src_fkeys in
  let referenced r =
    List.exists (fun (fk : Candgen.Fkey.t) -> String.equal fk.Candgen.Fkey.to_rel r.Relation.name) fkeys
  in
  let ordered =
    let refs, others = List.partition referenced piece.src_rels in
    refs @ others
  in
  let columns : (string * string, string list) Hashtbl.t = Hashtbl.create 16 in
  let tuples =
    List.concat_map
      (fun (r : Relation.t) ->
        List.init rows (fun i ->
            let values =
              Array.to_list r.Relation.attrs
              |> List.map (fun attr ->
                     let fk =
                       List.find_opt
                         (fun (fk : Candgen.Fkey.t) ->
                           String.equal fk.Candgen.Fkey.from_rel r.Relation.name
                           && String.equal fk.Candgen.Fkey.from_attr attr)
                         fkeys
                     in
                     let v =
                       match fk with
                       | Some fk -> (
                         match
                           Hashtbl.find_opt columns
                             (fk.Candgen.Fkey.to_rel, fk.Candgen.Fkey.to_attr)
                         with
                         | Some (_ :: _ as pool) ->
                           List.nth pool (Random.State.int rng (List.length pool))
                         | Some [] | None ->
                           Printf.sprintf "%s_%s_%d" r.Relation.name attr i)
                       | None ->
                         (* small per-column pool: joins and duplicates occur *)
                         Printf.sprintf "%s_%s_%d" r.Relation.name attr
                           (Random.State.int rng (max 1 rows))
                     in
                     let key = (r.Relation.name, attr) in
                     let prev = Option.value ~default:[] (Hashtbl.find_opt columns key) in
                     Hashtbl.replace columns key (v :: prev);
                     Value.Const v)
            in
            { Tuple.rel = r.Relation.name; values = Array.of_list values })
      )
      ordered
  in
  tuples

(* --- noise ------------------------------------------------------------- *)

let shuffle rng l =
  let arr = Array.of_list l in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let select_pct rng pct l =
  let n = List.length l in
  let count = ((pct * n) + 50) / 100 in
  let count = max 0 (min n count) in
  List.filteri (fun i _ -> i < count) (shuffle rng l)

(* Random correspondences (the pi_corresp noise): for each selected target
   relation, pick a source relation from a different primitive and map every
   target attribute to a random source attribute. *)
let noise_correspondences rng (config : Config.t) pieces =
  let tagged_targets =
    List.concat_map
      (fun (pi, piece) -> List.map (fun r -> (pi, r)) piece.tgt_rels)
      (List.mapi (fun i p -> (i, p)) pieces)
  in
  let tagged_sources =
    List.concat_map
      (fun (pi, piece) -> List.map (fun r -> (pi, r)) piece.src_rels)
      (List.mapi (fun i p -> (i, p)) pieces)
  in
  let selected = select_pct rng config.Config.pi_corresp tagged_targets in
  List.concat_map
    (fun (ti, (tgt : Relation.t)) ->
      let foreign = List.filter (fun (si, _) -> si <> ti) tagged_sources in
      match foreign with
      | [] -> []
      | _ :: _ ->
        let _, (src : Relation.t) =
          List.nth foreign (Random.State.int rng (List.length foreign))
        in
        Array.to_list tgt.Relation.attrs
        |> List.map (fun tattr ->
               let sattr =
                 src.Relation.attrs.(Random.State.int rng
                                       (Array.length src.Relation.attrs))
               in
               Candgen.Correspondence.make
                 ~src:(src.Relation.name, sattr)
                 ~tgt:(tgt.Relation.name, tattr)))
    selected

(* Ground a tuple by replacing its nulls with fresh constants. *)
let ground_tuple counter tu =
  let mapping = Hashtbl.create 4 in
  Tuple.map_values
    (fun v ->
      match v with
      | Value.Const _ -> v
      | Value.Null n -> (
        match Hashtbl.find_opt mapping n with
        | Some c -> c
        | None ->
          let c = Value.Const (Printf.sprintf "sk%d" !counter) in
          incr counter;
          Hashtbl.add mapping n c;
          c))
    tu

let generate (config : Config.t) =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generator.generate: " ^ msg));
  let rng = Random.State.make [| config.Config.seed |] in
  let pieces =
    List.concat_map
      (fun (kind, count) ->
        List.init count (fun i -> build_piece rng config kind (i + 1)))
      config.Config.primitives
  in
  let source = Schema.of_relations (List.concat_map (fun p -> p.src_rels) pieces) in
  let target = Schema.of_relations (List.concat_map (fun p -> p.tgt_rels) pieces) in
  let src_fkeys = List.concat_map (fun p -> p.src_fkeys) pieces in
  let tgt_fkeys = List.concat_map (fun p -> p.tgt_fkeys) pieces in
  let ground_truth = List.concat_map (fun p -> p.mg) pieces in
  (* data *)
  let instance_i =
    Instance.of_tuples
      (List.concat_map
         (generate_rows rng ~rows:config.Config.rows_per_relation)
         pieces)
  in
  let skolem = ref 0 in
  let mg_triggers = Chase.fire instance_i ground_truth in
  let mg_tuples =
    List.concat_map (fun (tr : Chase.Trigger.t) -> tr.Chase.Trigger.tuples) mg_triggers
  in
  (* The clean target instance: the chase of I under MG, grounded per
     trigger group so that join keys stay consistent across the tuples a
     trigger produces. *)
  let j_clean =
    let triggers = mg_triggers in
    List.fold_left
      (fun acc (tr : Chase.Trigger.t) ->
        let mapping = Hashtbl.create 4 in
        List.fold_left
          (fun acc tu ->
            let grounded =
              Tuple.map_values
                (fun v ->
                  match v with
                  | Value.Const _ -> v
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
  in
  (* metadata evidence *)
  let base_corrs =
    List.concat_map
      (Candgen.Generate.correspondences_of_tgd ~source ~target)
      ground_truth
  in
  let noise_corrs = noise_correspondences rng config pieces in
  let correspondences =
    List.sort_uniq Candgen.Correspondence.compare (base_corrs @ noise_corrs)
  in
  let candidates =
    Candgen.Generate.generate ~source ~target ~src_fkeys ~tgt_fkeys
      ~corrs:correspondences
  in
  (* locate (or defensively append) the ground truth within the candidates *)
  let candidates, ground_truth_indices =
    List.fold_left
      (fun (cands, idxs) mg ->
        match
          List.find_index (fun c -> Tgd.equal_up_to_renaming c mg) cands
        with
        | Some i -> (cands, i :: idxs)
        | None -> (cands @ [ mg ], List.length cands :: idxs))
      (candidates, []) ground_truth
  in
  let ground_truth_indices = List.rev ground_truth_indices in
  (* data noise *)
  let spurious =
    List.filteri (fun i _ -> not (List.mem i ground_truth_indices)) candidates
  in
  let spurious_triggers =
    let index = Logic.Cq.Index.build instance_i in
    List.concat_map
      (fun tgd -> Chase.fire ~index instance_i [ tgd ])
      spurious
  in
  let spurious_tuples =
    List.concat_map (fun (tr : Chase.Trigger.t) -> tr.Chase.Trigger.tuples) spurious_triggers
  in
  (* potential non-certain error tuples: tuples of J no spurious candidate
     can produce *)
  let producible_by_spurious t =
    List.exists (fun pattern -> Cover.matches ~pattern t) spurious_tuples
  in
  let potential_errors =
    Instance.fold
      (fun t acc -> if producible_by_spurious t then acc else t :: acc)
      j_clean []
    |> List.rev
  in
  let deletions = select_pct rng config.Config.pi_errors potential_errors in
  (* potential non-certain unexplained tuples: spurious chase tuples that
     neither map into J already nor are producible by the ground truth (a
     tuple MG also generates would be a certain tuple, not an unexplained
     one — note an all-null MG tuple maps onto anything of its relation) *)
  let producible_by_mg t =
    List.exists (fun pattern -> Cover.matches ~pattern t) mg_tuples
  in
  let potential_unexplained =
    List.filter
      (fun t -> not (Cover.maps_into t j_clean) && not (producible_by_mg t))
      spurious_tuples
  in
  let additions =
    select_pct rng config.Config.pi_unexplained potential_unexplained
    |> List.map (ground_tuple skolem)
  in
  let instance_j =
    let after_del = List.fold_left (fun acc t -> Instance.remove t acc) j_clean deletions in
    Instance.add_all additions after_del
  in
  {
    Scenario.config;
    source;
    target;
    src_fkeys;
    tgt_fkeys;
    correspondences;
    candidates;
    ground_truth;
    ground_truth_indices;
    instance_i;
    instance_j;
    j_clean;
  }
