open Relational
open Logic

type config = {
  relations : int;
  arity : int;
  rows : int;
  hops : int;
  pi_corresp : int;
  pi_errors : int;
  pi_unexplained : int;
  seed : int;
}

let default =
  {
    relations = 2;
    arity = 2;
    rows = 3;
    hops = 2;
    pi_corresp = 0;
    pi_errors = 0;
    pi_unexplained = 0;
    seed = 42;
  }

let validate c =
  if c.relations < 1 then Error "relations must be >= 1"
  else if c.arity < 1 then Error "arity must be >= 1"
  else if c.rows < 1 then Error "rows must be >= 1"
  else if c.hops < 2 || c.hops > 3 then Error "hops must be 2 or 3"
  else if
    List.exists
      (fun p -> p < 0 || p > 100)
      [ c.pi_corresp; c.pi_errors; c.pi_unexplained ]
  then Error "noise percentages must be in [0, 100]"
  else Ok ()

type hop = {
  tgds : Tgd.t list;
  ground_truth : Tgd.t list;
  observed : Instance.t;
}

type t = { config : config; source : Instance.t; hops : hop list }

let mappings t = List.map (fun h -> h.tgds) t.hops

let target t =
  match List.rev t.hops with
  | last :: _ -> last.observed
  | [] -> Instance.empty

(* --- small deterministic helpers --------------------------------------- *)

let permutation rng n = Generator.shuffle rng (List.init n Fun.id)

(* Swap two head-argument positions — the spurious twin of a ground-truth
   tgd. Returns [None] when the head has no two distinct arguments to swap. *)
let permuted_twin rng (tgd : Tgd.t) =
  match tgd.Tgd.head with
  | [ h ] when Atom.arity h >= 2 ->
    let n = Atom.arity h in
    let i = Random.State.int rng n in
    let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
    let args = Array.copy h.Atom.args in
    let t = args.(i) in
    args.(i) <- args.(j);
    args.(j) <- t;
    if args = h.Atom.args then None
    else
      Some
        (Tgd.make
           ~label:(tgd.Tgd.label ^ "_x")
           ~body:tgd.Tgd.body
           ~head:[ Atom.make h.Atom.rel (Array.to_list args) ]
           ())
  | _ -> None

(* --- tgd construction --------------------------------------------------- *)

let vars n = List.init n (fun i -> Term.Var (Printf.sprintf "V%d" i))

(* Hop 1: one copy/project/permute tgd per source relation, each with its
   own head relation (so unfolding a later hop can always tell which tgd
   produced an atom), optionally inventing one existential column. *)
let hop1_tgds rng ~relations ~arity =
  List.init relations (fun i ->
      let body = [ Atom.make (Printf.sprintf "s%d" i) (vars arity) ] in
      let keep = max 1 (arity - Random.State.int rng 2) in
      let positions = List.filteri (fun q _ -> q < keep) (permutation rng arity) in
      let kept = List.map (fun p -> Term.Var (Printf.sprintf "V%d" p)) positions in
      let extra =
        if Random.State.int rng 100 < 40 then
          [ Term.Var (Printf.sprintf "E%d" i) ]
        else []
      in
      Tgd.make
        ~label:(Printf.sprintf "h1_%d" i)
        ~body
        ~head:[ Atom.make (Printf.sprintf "t%d" i) (kept @ extra) ]
        ())

let head_arities tgds =
  List.concat_map
    (fun (t : Tgd.t) ->
      List.map (fun (a : Atom.t) -> (a.Atom.rel, Atom.arity a)) t.Tgd.head)
    tgds
  |> List.sort_uniq compare

(* Hop k (k >= 2): one tgd per output relation, joining one or two atoms of
   the previous hop's head schema on a shared variable; heads project onto
   frontier variables only. *)
let join_tgds rng ~prev ~count ~out_prefix ~label_prefix =
  let prev = Array.of_list prev in
  let n_prev = Array.length prev in
  List.init count (fun k ->
      let rel1, ar1 = prev.(k mod n_prev) in
      let a1 =
        Atom.make rel1 (List.init ar1 (fun i -> Term.Var (Printf.sprintf "A%d" i)))
      in
      let join = n_prev >= 1 && Random.State.int rng 100 < 60 in
      let body =
        if not join then [ a1 ]
        else
          let rel2, ar2 = prev.((k + 1) mod n_prev) in
          let args2 =
            Array.init ar2 (fun i -> Term.Var (Printf.sprintf "B%d" i))
          in
          let p = Random.State.int rng ar2 in
          let q = Random.State.int rng ar1 in
          args2.(p) <- a1.Atom.args.(q);
          [ a1; Atom.make rel2 (Array.to_list args2) ]
      in
      let body_vars =
        List.concat_map
          (fun (a : Atom.t) ->
            Array.to_list a.Atom.args
            |> List.filter_map (function
                 | Term.Var v -> Some v
                 | Term.Cst _ -> None))
          body
        |> List.sort_uniq String.compare
      in
      let width = 1 + Random.State.int rng (min 3 (List.length body_vars)) in
      let head_args =
        Generator.shuffle rng body_vars
        |> List.filteri (fun i _ -> i < width)
        |> List.map (fun v -> Term.Var v)
      in
      Tgd.make
        ~label:(Printf.sprintf "%s%d" label_prefix k)
        ~body
        ~head:[ Atom.make (Printf.sprintf "%s%d" out_prefix k) head_args ]
        ())

(* --- data --------------------------------------------------------------- *)

(* All columns draw from one small shared pool, so cross-relation joins
   actually fire. *)
let source_instance rng ~relations ~arity ~rows =
  let pool = rows + 2 in
  let tuples =
    List.concat_map
      (fun r ->
        List.init rows (fun _ ->
            {
              Tuple.rel = Printf.sprintf "s%d" r;
              values =
                Array.init arity (fun _ ->
                    Value.Const
                      (Printf.sprintf "d%d" (Random.State.int rng pool)));
            }))
      (List.init relations Fun.id)
  in
  Instance.of_tuples tuples

(* Grounded chase: chase [inst] with [tgds] and replace the invented nulls
   with fresh constants, consistently within each trigger group (the same
   grounding discipline as {!Generator.generate}). *)
let grounded_chase skolem inst tgds =
  let triggers = Chase.fire inst tgds in
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
                    let c = Value.Const (Printf.sprintf "mk%d" !skolem) in
                    incr skolem;
                    Hashtbl.add mapping n c;
                    c))
              tu
          in
          Instance.add grounded acc)
        acc tr.Chase.Trigger.tuples)
    Instance.empty triggers

let generate config =
  (match validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Multihop.generate: " ^ msg));
  let rng = Random.State.make [| 0x4a0b; config.seed |] in
  let skolem = ref 0 in
  let source =
    source_instance rng ~relations:config.relations ~arity:config.arity
      ~rows:config.rows
  in
  let hop1 = hop1_tgds rng ~relations:config.relations ~arity:config.arity in
  let hop2 =
    join_tgds rng ~prev:(head_arities hop1) ~count:config.relations
      ~out_prefix:"u" ~label_prefix:"h2_"
  in
  let hop3 =
    if config.hops < 3 then []
    else
      join_tgds rng ~prev:(head_arities hop2) ~count:config.relations
        ~out_prefix:"w" ~label_prefix:"h3_"
  in
  let ground = List.filter (fun m -> m <> []) [ hop1; hop2; hop3 ] in
  let build_hop prev_observed gt =
    let noise_tgds =
      List.filter_map
        (fun t ->
          if Random.State.int rng 100 < config.pi_corresp then
            permuted_twin rng t
          else None)
        gt
    in
    let clean = grounded_chase skolem prev_observed gt in
    let deletions =
      Generator.select_pct rng config.pi_errors (Instance.tuples clean)
    in
    let additions =
      grounded_chase skolem prev_observed noise_tgds
      |> Instance.tuples
      |> List.filter (fun t -> not (Instance.mem t clean))
      |> Generator.select_pct rng config.pi_unexplained
    in
    let observed =
      List.fold_left
        (fun acc t -> Instance.remove t acc)
        clean deletions
      |> Instance.add_all additions
    in
    { tgds = gt @ noise_tgds; ground_truth = gt; observed }
  in
  let _, hops =
    List.fold_left
      (fun (prev, acc) gt ->
        let hop = build_hop prev gt in
        (hop.observed, hop :: acc))
      (source, []) ground
  in
  { config; source; hops = List.rev hops }

let pp_summary fmt t =
  let hop_line i h =
    Format.fprintf fmt "hop %d: %d tgds (%d ground truth), %d observed tuples@,"
      (i + 1) (List.length h.tgds)
      (List.length h.ground_truth)
      (List.length (Instance.tuples h.observed))
  in
  Format.fprintf fmt "@[<v>multi-hop scenario: %d source tuples, %d hops@,"
    (List.length (Instance.tuples t.source))
    (List.length t.hops);
  List.iteri hop_line t.hops;
  Format.fprintf fmt "@]"
