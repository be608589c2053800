open Relational
open Logic
open Util

type semantics =
  | Corroborated
  | Strict
  | Generous

type tgd_stats = {
  index : int;
  tgd : Tgd.t;
  covers : Frac.t Tuple.Map.t;
  error_tuples : Tuple.t list;
  produced : int;
  size : int;
}

let covers stats t =
  match Tuple.Map.find_opt t stats.covers with None -> Frac.zero | Some d -> d

let error_count stats = List.length stats.error_tuples

let covered_targets stats = Tuple.Map.bindings stats.covers |> List.map fst

(* --- tuple pattern matching ------------------------------------------- *)

let matches ~(pattern : Tuple.t) (t : Tuple.t) =
  let n = Array.length pattern.values in
  let rec loop i asg =
    i >= n
    ||
    match pattern.values.(i) with
    | Value.Const _ as c -> Value.equal c t.values.(i) && loop (i + 1) asg
    | Value.Null _ as nul -> (
      match Value.Map.find_opt nul asg with
      | Some bound -> Value.equal bound t.values.(i) && loop (i + 1) asg
      | None -> loop (i + 1) (Value.Map.add nul t.values.(i) asg))
  in
  String.equal pattern.Tuple.rel t.Tuple.rel
  && Array.length t.values = n
  && loop 0 Value.Map.empty

let maps_into pattern inst =
  Tuple.Set.exists (fun t -> matches ~pattern t) (Instance.tuples_of inst pattern.Tuple.rel)

(* --- the J index ------------------------------------------------------ *)

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash = Hashtbl.hash
end)

(* One relation of J: its tuples in canonical order, and per position a
   posting list of row numbers for every value found there, each in
   ascending order. A probe therefore visits its matches in the order a
   scan of the whole relation would. A position's lists are built on its
   first probe: probes keep to the few positions where candidates put
   constants. [best] is scratch space for the candidate being folded: the
   largest number of positions any of its chase tuples accounts for in
   each row (0 for none yet). *)
type rel_index = {
  rows : Tuple.t array;
  all_rows : int list;
  postings : int list Vtbl.t option array;
  best : int array;
}

(* J indexed for one analysis, shared by all of its candidates. Each
   relation is indexed on its first probe, so relations no candidate
   reaches cost nothing. The tables are mutated as they fill and as
   candidates are folded: an index belongs to one domain. [touched] lists
   the rows whose [best] the current candidate raised from 0. *)
type j_index = {
  j : Instance.t;
  rels : (string, rel_index) Hashtbl.t;
  mutable touched : (rel_index * int) list;
}

let relations_indexed = Telemetry.Counter.make "cover.relations_indexed"

let rows_probed = Telemetry.Counter.make "cover.rows_probed"

let configurations = Telemetry.Counter.make "cover.configurations"

let index_j j = { j; rels = Hashtbl.create 8; touched = [] }

let rel_index jx rel =
  match Hashtbl.find_opt jx.rels rel with
  | Some ri -> ri
  | None ->
    let rows = Array.of_list (Tuple.Set.elements (Instance.tuples_of jx.j rel)) in
    let width = Array.fold_left (fun w t -> max w (Tuple.arity t)) 0 rows in
    let ri =
      {
        rows;
        all_rows = List.init (Array.length rows) Fun.id;
        postings = Array.make width None;
        best = Array.make (Array.length rows) 0;
      }
    in
    Hashtbl.add jx.rels rel ri;
    Telemetry.Counter.incr relations_indexed;
    ri

let postings ri pos =
  match ri.postings.(pos) with
  | Some tbl -> tbl
  | None ->
    let tbl = Vtbl.create (Array.length ri.rows) in
    (* walking the rows downwards and consing leaves every list ascending *)
    for r = Array.length ri.rows - 1 downto 0 do
      let values = ri.rows.(r).Tuple.values in
      if pos < Array.length values then
        Vtbl.replace tbl values.(pos)
          (r :: Option.value ~default:[] (Vtbl.find_opt tbl values.(pos)))
    done;
    ri.postings.(pos) <- Some tbl;
    tbl

(* Records that a chase tuple accounts for [count] positions of row [r]. *)
let raise_best jx ri r count =
  if count > ri.best.(r) then begin
    if ri.best.(r) = 0 then jx.touched <- (ri, r) :: jx.touched;
    ri.best.(r) <- count
  end

(* The current candidate's coverage degrees, read off and cleared: each
   touched row's best count over its arity. *)
let take_covers jx =
  let covers =
    List.fold_left
      (fun acc (ri, r) ->
        let t = ri.rows.(r) in
        let d = Frac.make ri.best.(r) (Tuple.arity t) in
        ri.best.(r) <- 0;
        Tuple.Map.add t d acc)
      Tuple.Map.empty jx.touched
  in
  jx.touched <- [];
  covers

(* --- per-trigger-group analysis --------------------------------------- *)

(* A trigger group under enumeration. Its nulls are numbered [0 ..], so the
   current assignment is an array of slots plus an undo trail rather than a
   map: [slot.(i).(pos)] is the slot of group tuple [i]'s null at [pos], or
   [-1] where it holds a constant. *)
type group = {
  tuples : Tuple.t array;
  rels : rel_index array;  (** each tuple's relation of J *)
  slot : int array array;
  holders : int list array;  (** per slot: the group tuples holding it *)
  value : Value.t array;  (** a slot's value, meaningful while bound *)
  bound : bool array;
  trail : int array;  (** slots bound so far, in binding order *)
  mutable top : int;
}

let group_of jx tuples =
  let slots = ref [] and n = ref 0 in
  let slot =
    Array.map
      (fun (t : Tuple.t) ->
        Array.map
          (function
            | Value.Const _ -> -1
            | Value.Null _ as nul -> (
              match List.assoc_opt nul !slots with
              | Some s -> s
              | None ->
                let s = !n in
                slots := (nul, s) :: !slots;
                incr n;
                s))
          t.Tuple.values)
      tuples
  in
  let n = !n in
  let holders = Array.make n [] in
  for i = Array.length tuples - 1 downto 0 do
    Array.iter
      (fun s ->
        if s >= 0 && not (List.mem i holders.(s)) then
          holders.(s) <- i :: holders.(s))
      slot.(i)
  done;
  {
    tuples;
    rels = Array.map (fun (t : Tuple.t) -> rel_index jx t.Tuple.rel) tuples;
    slot;
    holders;
    value = Array.make n (Value.Const "");
    bound = Array.make n false;
    trail = Array.make n 0;
    top = 0;
  }

let unbind g mark =
  while g.top > mark do
    g.top <- g.top - 1;
    g.bound.(g.trail.(g.top)) <- false
  done

(* Extends the current assignment so that group tuple [i] maps onto row [r]
   of its relation; on conflict leaves the assignment as it was and
   returns [false]. *)
let bind g i r =
  let pattern = g.tuples.(i).Tuple.values and slot = g.slot.(i) in
  let values = g.rels.(i).rows.(r).Tuple.values in
  let n = Array.length pattern in
  Array.length values = n
  &&
  let mark = g.top in
  let pos = ref 0 in
  while !pos < n do
    let v = values.(!pos) and s = slot.(!pos) in
    let ok =
      if s < 0 then Value.equal pattern.(!pos) v
      else if g.bound.(s) then Value.equal g.value.(s) v
      else begin
        g.bound.(s) <- true;
        g.value.(s) <- v;
        g.trail.(g.top) <- s;
        g.top <- g.top + 1;
        true
      end
    in
    pos := if ok then !pos + 1 else n + 1
  done;
  !pos = n || (unbind g mark; false)

(* The rows that may match group tuple [i]: the posting list of its first
   constant position, or the whole relation when it has no constant. *)
let probe g i =
  let ri = g.rels.(i) and slot = g.slot.(i) in
  let rec first pos =
    if pos >= Array.length slot then ri.all_rows
    else if slot.(pos) >= 0 then first (pos + 1)
    else if pos >= Array.length ri.postings then []
    else
      Option.value ~default:[]
        (Vtbl.find_opt (postings ri pos) g.tuples.(i).Tuple.values.(pos))
  in
  first 0

(* Some group tuple other than [i] among [holders] is matched. *)
let rec matched_elsewhere ~matched i = function
  | [] -> false
  | k :: rest -> (k <> i && matched.(k)) || matched_elsewhere ~matched i rest

(* How many positions of group tuple [i] count as covered when the group
   tuples with [matched.(k)] are matched: every constant, and each null
   the semantics credits. A corroborated null also occurs in another
   matched group tuple. The degree is this count over the arity. *)
let covered_count ~semantics g ~matched i =
  let slot = g.slot.(i) in
  let count = ref 0 in
  for pos = 0 to Array.length slot - 1 do
    let s = slot.(pos) in
    let credited =
      s < 0
      ||
      match semantics with
      | Strict -> false
      | Generous -> true
      | Corroborated ->
        matched_elsewhere ~matched i g.holders.(s)
    in
    if credited then incr count
  done;
  !count

(* Enumerate all consistent configurations of one trigger group, raise the
   per-row best coverage counts and prepend the group's error tuples to
   [errors]. A configuration assigns each group tuple either to one of its
   options — the rows it matches on its own — consistently with the nulls
   the group shares, or to "unmatched". A tuple without options is an
   error tuple. A leaf only raises [best.(k)], the best count of each
   matched tuple over the leaves below the node that bound it; that node
   records it when it is left. *)
let fold_group ~semantics ~jx tuples errors =
  let g = group_of jx tuples in
  let n = Array.length tuples in
  let probed = ref 0 and leaves = ref 0 in
  (* each tuple's options, bound one at a time to the empty assignment *)
  let options =
    Array.init n (fun i ->
        List.filter
          (fun r ->
            incr probed;
            bind g i r && (unbind g 0; true))
          (probe g i))
  in
  let matched = Array.make n false in
  let best = Array.make n 0 in
  let rec explore i =
    if i >= n then begin
      incr leaves;
      for k = 0 to n - 1 do
        if matched.(k) then
          best.(k) <- max best.(k) (covered_count ~semantics g ~matched k)
      done
    end
    else begin
      explore (i + 1);
      try_options i options.(i)
    end
  and try_options i = function
    | [] -> ()
    | r :: rest ->
      let mark = g.top in
      if bind g i r then begin
        matched.(i) <- true;
        best.(i) <- 0;
        explore (i + 1);
        raise_best jx g.rels.(i) r best.(i);
        matched.(i) <- false;
        unbind g mark
      end;
      try_options i rest
  in
  explore 0;
  if Telemetry.enabled () then begin
    Telemetry.Counter.add rows_probed !probed;
    Telemetry.Counter.add configurations !leaves
  end;
  let errors = ref errors in
  Array.iteri
    (fun i o -> if o = [] then errors := tuples.(i) :: !errors)
    options;
  !errors

let fold_triggers ~semantics ~jx ~index tgd triggers =
  let errors, produced =
    List.fold_left
      (fun (errors, produced) (tr : Chase.Trigger.t) ->
        let group = Array.of_list tr.Chase.Trigger.tuples in
        (fold_group ~semantics ~jx group errors, produced + Array.length group))
      ([], 0) triggers
  in
  {
    index;
    tgd;
    covers = take_covers jx;
    error_tuples = List.rev errors;
    produced;
    size = Tgd.size tgd;
  }

let stats_of_triggers ?(semantics = Corroborated) ~j ~index tgd triggers =
  fold_triggers ~semantics ~jx:(index_j j) ~index tgd triggers

(* Keep only the trigger tuples that survive into the core of the chased
   target; a trigger whose whole group was retracted away disappears. With
   coring on, coverage and errors are computed against the core universal
   solution, so redundant chase tuples stop inflating [K_M] (and stop
   counting as errors) — which is why cored stats are cached under their
   own key and pinned by their own goldens. *)
let core_triggers (result : Chase.result) =
  let c = Chase.Core_solution.core result.Chase.solution in
  if Instance.equal c result.Chase.solution then result.Chase.triggers
  else
    List.filter_map
      (fun (tr : Chase.Trigger.t) ->
        match List.filter (fun t -> Instance.mem t c) tr.Chase.Trigger.tuples with
        | [] -> None
        | tuples -> Some { tr with Chase.Trigger.tuples })
      result.Chase.triggers

let stats_with ~semantics ~core ~jx ~index tgd result =
  let triggers =
    if core then core_triggers result else result.Chase.triggers
  in
  fold_triggers ~semantics ~jx ~index tgd triggers

let stats_of_result ?(semantics = Corroborated) ?(core = false) ~j ~index tgd
    result =
  stats_with ~semantics ~core ~jx:(index_j j) ~index tgd result

module Session = struct
  type t = { chase : (Tgd.t -> Chase.result) Lazy.t; jx : j_index }

  let make ~source ~j =
    let chase =
      lazy
        (let source_index = Logic.Cq.Index.build source in
         fun tgd -> Chase.run ~index:source_index source [ tgd ])
    in
    { chase; jx = index_j j }

  let chase s tgd = (Lazy.force s.chase) tgd

  let stats ?(semantics = Corroborated) ?(core = false) s ~index tgd result =
    stats_with ~semantics ~core ~jx:s.jx ~index tgd result
end

let analyze ?semantics ?core ~source ~j tgds =
  Telemetry.with_span "cover.analyze" @@ fun () ->
  let s = Session.make ~source ~j in
  Array.of_list
    (List.mapi
       (fun index tgd ->
         Session.stats ?semantics ?core s ~index tgd (Session.chase s tgd))
       tgds)

let explains stats t =
  List.fold_left (fun acc s -> Frac.max acc (covers s t)) Frac.zero stats

let uncovered_targets stats j =
  Instance.fold
    (fun t acc ->
      let covered =
        Array.exists (fun s -> not (Frac.is_zero (covers s t))) stats
      in
      if covered then acc else Tuple.Set.add t acc)
    j Tuple.Set.empty
