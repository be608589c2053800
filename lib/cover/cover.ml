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
  rows : (int * Frac.t) array;
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

(* One relation of J: its tuples in canonical order, and per position a
   posting list of row numbers for every value found there, each in
   ascending order. A probe therefore visits its matches in the order a
   scan of the whole relation would. A position's lists are built on its
   first probe: probes keep to the positions where candidates put
   constants or join on a null. [best] is scratch space for the candidate being folded: the
   largest number of positions any of its chase tuples accounts for in
   each row (0 for none yet). *)
type rel_index = {
  rows : Tuple.t array;
  offset : int;
      (** tuples of [J] in relations named before this one: row [r] is
          tuple [offset + length rows - 1 - r] of [Instance.tuples j] *)
  all_rows : int list;
  postings : int list Value.Tbl.t option array;
  best : int array;
}

(* J indexed for one analysis, shared by all of its candidates. Each
   relation is indexed on its first probe, so relations no candidate
   reaches cost nothing. The tables are mutated as they fill and as
   candidates are folded: an index belongs to one domain. [touched] lists
   the rows whose [best] the current candidate raised from 0. *)
type j_index = {
  j : Instance.t;
  offsets : (string, int) Hashtbl.t Lazy.t;  (** per relation: its [offset] *)
  rels : (string, rel_index) Hashtbl.t;
  mutable touched : (rel_index * int) list;
}

let relations_indexed = Telemetry.Counter.make "cover.relations_indexed"

let rows_probed = Telemetry.Counter.make "cover.rows_probed"

let configurations = Telemetry.Counter.make "cover.configurations"

let layouts = Telemetry.Counter.make "cover.layouts"

(* [Instance.tuples j] lists the relations in ascending name order. *)
let relation_offsets j =
  let offsets = Hashtbl.create 8 in
  ignore
    (List.fold_left
       (fun offset rel ->
         Hashtbl.replace offsets rel offset;
         offset + Tuple.Set.cardinal (Instance.tuples_of j rel))
       0 (Instance.relations j));
  offsets

let index_j j =
  {
    j;
    offsets = lazy (relation_offsets j);
    rels = Hashtbl.create 8;
    touched = [];
  }

let rel_index jx rel =
  match Hashtbl.find_opt jx.rels rel with
  | Some ri -> ri
  | None ->
    let rows = Array.of_list (Tuple.Set.elements (Instance.tuples_of jx.j rel)) in
    let width = Array.fold_left (fun w t -> max w (Tuple.arity t)) 0 rows in
    let ri =
      {
        rows;
        offset =
          Option.value ~default:0 (Hashtbl.find_opt (Lazy.force jx.offsets) rel);
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
    let tbl = Value.Tbl.create (Array.length ri.rows) in
    (* walking the rows downwards and consing leaves every list ascending *)
    for r = Array.length ri.rows - 1 downto 0 do
      let values = ri.rows.(r).Tuple.values in
      if pos < Array.length values then
        Value.Tbl.replace tbl values.(pos)
          (r :: Option.value ~default:[] (Value.Tbl.find_opt tbl values.(pos)))
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
   touched row's best count over its arity, as the covers map and as row
   numbers into [Instance.tuples j] in the map's order. Within a relation
   the map's order is the rows' ascending order, and across relations it
   is the offsets' order, so [offset + r] sorts the touched rows into it. *)
let take_covers jx =
  let touched = Array.of_list jx.touched in
  Array.sort
    (fun (ri, r) (ri', r') -> Int.compare (ri.offset + r) (ri'.offset + r'))
    touched;
  let covers = ref Tuple.Map.empty in
  let rows =
    Array.map
      (fun (ri, r) ->
        let t = ri.rows.(r) in
        let d = Frac.make ri.best.(r) (Tuple.arity t) in
        ri.best.(r) <- 0;
        covers := Tuple.Map.add t d !covers;
        (ri.offset + Array.length ri.rows - 1 - r, d))
      touched
  in
  jx.touched <- [];
  (!covers, rows)

(* --- per-trigger-group analysis --------------------------------------- *)

(* A trigger group under enumeration. Its nulls are numbered [0 ..], so the
   current assignment is an array of slots plus an undo trail rather than a
   map: [slot.(i).(pos)] is the slot of group tuple [i]'s null at [pos], or
   [-1] where it holds a constant. The tuples are decided in [order]: those
   holding a constant first, so that their selective probes bind the nulls
   the all-null tuples are then probed by.

   Everything but [tuples] and the enumeration state from [value] on
   depends only on the group's layout: each tuple's relation and arity,
   which of its positions hold constants, and its nulls numbered by first
   occurrence. Over a null-free source every trigger of one candidate has
   the same layout, so a fold lays a group out once and [group_for] reuses
   it for the candidate's later groups. *)
type group = {
  mutable tuples : Tuple.t array;
  rels : rel_index array;  (** each tuple's relation of J *)
  slot : int array array;
  holders : int list array;  (** per slot: the group tuples holding it *)
  order : int array;
  isolable : bool array;
      (** per tuple: no tuple decided after it holds one of its nulls *)
  value : Value.t array;  (** a slot's value, meaningful while bound *)
  bound : bool array;
  trail : int array;  (** slots bound so far, in binding order *)
  mutable top : int;
  matched : bool array;  (** per tuple: bound to a row on this branch *)
  best : int array;
      (** per tuple: its best count over the leaves below the node that
          bound it *)
  found : bool array;  (** per tuple: some row matches it on its own *)
  settled : bool array;  (** per tuple: its isolated pass is done *)
  mutable probed : int;
  mutable leaves : int;
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
  Telemetry.Counter.incr layouts;
  let n = !n and count = Array.length tuples in
  let holders = Array.make n [] in
  for i = count - 1 downto 0 do
    Array.iter
      (fun s ->
        if s >= 0 && not (List.mem i holders.(s)) then
          holders.(s) <- i :: holders.(s))
      slot.(i)
  done;
  let order = Array.make count 0 and decided = ref 0 in
  let holds_constant i = Array.exists (fun s -> s < 0) slot.(i) in
  List.iter
    (fun first ->
      for i = 0 to count - 1 do
        if holds_constant i = first then begin
          order.(!decided) <- i;
          incr decided
        end
      done)
    [ true; false ];
  (* walking the order backwards, a null is held later once a tuple
     decided after the current one holds it *)
  let held_later = Array.make n false in
  let free s = s < 0 || not held_later.(s) in
  let hold s = if s >= 0 then held_later.(s) <- true in
  let isolable = Array.make count false in
  for d = count - 1 downto 0 do
    let i = order.(d) in
    isolable.(i) <- Array.for_all free slot.(i);
    Array.iter hold slot.(i)
  done;
  {
    tuples;
    rels = Array.map (fun (t : Tuple.t) -> rel_index jx t.Tuple.rel) tuples;
    slot;
    holders;
    order;
    isolable;
    value = Array.make n (Value.Const "");
    bound = Array.make n false;
    trail = Array.make n 0;
    top = 0;
    matched = Array.make count false;
    best = Array.make count 0;
    found = Array.make count false;
    settled = Array.make count false;
    probed = 0;
    leaves = 0;
  }

(* [tuples] has [g]'s layout. [g.value] is free between enumerations and
   holds the nulls met so far, slot by slot. *)
let same_layout g tuples =
  Array.length tuples = Array.length g.tuples
  &&
  let seen = ref 0 in
  let rec fresh v k =
    k >= !seen || ((not (Value.equal g.value.(k) v)) && fresh v (k + 1))
  in
  let rec positions (t : Tuple.t) slot pos =
    pos >= Array.length slot
    ||
    let s = slot.(pos) in
    (match t.Tuple.values.(pos) with
    | Value.Const _ -> s < 0
    | Value.Null _ as v ->
      if s = !seen then
        fresh v 0
        && begin
          g.value.(s) <- v;
          incr seen;
          true
        end
      else s >= 0 && s < !seen && Value.equal g.value.(s) v)
    && positions t slot (pos + 1)
  in
  let rec tuple i =
    i >= Array.length tuples
    ||
    let t = tuples.(i) and t' = g.tuples.(i) in
    String.equal t.Tuple.rel t'.Tuple.rel
    && Array.length t.Tuple.values = Array.length t'.Tuple.values
    && positions t g.slot.(i) 0
    && tuple (i + 1)
  in
  tuple 0

(* The group for [tuples]: [last] with its per-trigger state reset when
   the layout is the same, else a new group. *)
let group_for jx last tuples =
  match last with
  | Some g when same_layout g tuples ->
    g.tuples <- tuples;
    Array.fill g.best 0 (Array.length g.best) 0;
    Array.fill g.found 0 (Array.length g.found) false;
    Array.fill g.settled 0 (Array.length g.settled) false;
    g.probed <- 0;
    g.leaves <- 0;
    g
  | _ -> group_of jx tuples

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

(* The rows that may match group tuple [i] under the current assignment:
   the posting list of its first position holding a constant or a bound
   null, or the whole relation when there is none. *)
let probe g i =
  let ri = g.rels.(i) and slot = g.slot.(i) in
  let rec first pos =
    if pos >= Array.length slot then ri.all_rows
    else
      let s = slot.(pos) in
      if s >= 0 && not g.bound.(s) then first (pos + 1)
      else if pos >= Array.length ri.postings then []
      else
        let v =
          if s < 0 then g.tuples.(i).Tuple.values.(pos) else g.value.(s)
        in
        match Value.Tbl.find (postings ri pos) v with
        | rows -> rows
        | exception Not_found -> []
  in
  first 0

(* The nulls of group tuple [i] from [pos] on are all unbound. *)
let rec unbound g i pos =
  let slot = g.slot.(i) in
  pos >= Array.length slot
  || ((slot.(pos) < 0 || not g.bound.(slot.(pos))) && unbound g i (pos + 1))

(* Some group tuple other than [i] among [holders] is matched. *)
let rec matched_elsewhere ~matched i = function
  | [] -> false
  | k :: rest -> (k <> i && matched.(k)) || matched_elsewhere ~matched i rest

(* How many positions of group tuple [i] count as covered when the group
   tuples with [matched.(k)] are matched: every constant, and each null
   the semantics credits. A corroborated null also occurs in another
   matched group tuple. The degree is this count over the arity. *)
let covered_count ~semantics g i =
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
        matched_elsewhere ~matched:g.matched i g.holders.(s)
    in
    if credited then incr count
  done;
  !count

(* Enumerate the consistent configurations of one trigger group, raising
   the per-row best coverage counts. A configuration assigns each group
   tuple either to a row of J it matches, consistently with the nulls the
   group shares, or to "unmatched". A leaf only raises [g.best.(k)], the
   best count of each matched tuple over the leaves below the node that
   bound it; that node records it when it is left.

   The tuples are decided in [g.order], each probed under the current
   assignment. A tuple reached with its nulls all unbound and held by no
   tuple decided later is isolated: matching it binds nothing a later
   tuple reads, and no matched tuple shares a null with it, so no branch
   on it changes another tuple's count, and its own count in every such
   branch is that of "only it matched". It is not branched on; instead
   [settle] raises every row it matches on its own to that count, once per
   group, since the count is the same wherever the tuple is isolated. A
   tuple is an error tuple when no row matches it on its own. Along the
   branch that leaves every earlier tuple unmatched its probe is that of
   the empty assignment, so [g.found] is exact once the enumeration ends,
   and a settled tuple whose count is 0 raises nothing and needs only its
   first match. *)
let rec settle_rows ~jx g i alone = function
  | [] -> ()
  | r :: rest ->
    g.probed <- g.probed + 1;
    let mark = g.top in
    if bind g i r then begin
      unbind g mark;
      g.found.(i) <- true;
      raise_best jx g.rels.(i) r alone
    end;
    if alone > 0 || not g.found.(i) then settle_rows ~jx g i alone rest

let settle ~semantics ~jx g i =
  g.settled.(i) <- true;
  let alone = covered_count ~semantics g i in
  if alone > 0 || not g.found.(i) then settle_rows ~jx g i alone (probe g i)

let rec explore ~semantics ~jx g d =
  let n = Array.length g.tuples in
  if d >= n then begin
    g.leaves <- g.leaves + 1;
    for k = 0 to n - 1 do
      if g.matched.(k) then
        g.best.(k) <- max g.best.(k) (covered_count ~semantics g k)
    done
  end
  else
    let i = g.order.(d) in
    if g.isolable.(i) && unbound g i 0 then begin
      if not g.settled.(i) then settle ~semantics ~jx g i;
      explore ~semantics ~jx g (d + 1)
    end
    else begin
      explore ~semantics ~jx g (d + 1);
      try_rows ~semantics ~jx g d i (probe g i)
    end

and try_rows ~semantics ~jx g d i = function
  | [] -> ()
  | r :: rest ->
    g.probed <- g.probed + 1;
    let mark = g.top in
    if bind g i r then begin
      g.found.(i) <- true;
      g.matched.(i) <- true;
      g.best.(i) <- 0;
      explore ~semantics ~jx g (d + 1);
      raise_best jx g.rels.(i) r g.best.(i);
      g.matched.(i) <- false;
      unbind g mark
    end;
    try_rows ~semantics ~jx g d i rest

(* Folds one trigger group and prepends its error tuples to [errors]. *)
let fold_group ~semantics ~jx g errors =
  explore ~semantics ~jx g 0;
  if Telemetry.enabled () then begin
    Telemetry.Counter.add rows_probed g.probed;
    Telemetry.Counter.add configurations g.leaves
  end;
  let errors = ref errors in
  Array.iteri
    (fun i found -> if not found then errors := g.tuples.(i) :: !errors)
    g.found;
  !errors

let fold_triggers ~semantics ~jx ~index tgd triggers =
  let errors, produced, _ =
    List.fold_left
      (fun (errors, produced, last) (tr : Chase.Trigger.t) ->
        let tuples = Array.of_list tr.Chase.Trigger.tuples in
        let g = group_for jx last tuples in
        ( fold_group ~semantics ~jx g errors,
          produced + Array.length tuples,
          Some g ))
      ([], 0, None) triggers
  in
  let covers, rows = take_covers jx in
  {
    index;
    tgd;
    covers;
    rows;
    error_tuples = List.rev errors;
    produced;
    size = Tgd.size tgd;
  }

let stats_of_triggers ?(semantics = Corroborated) ~j ~index tgd triggers =
  fold_triggers ~semantics ~jx:(index_j j) ~index tgd triggers

(* Keep only the trigger tuples that survive into the core of the chased
   target [solution]; a trigger whose whole group was retracted away
   disappears. With coring on, coverage and errors are computed against
   the core universal solution, so redundant chase tuples stop inflating
   [K_M] (and stop counting as errors) — which is why cored stats are
   cached under their own key and pinned by their own goldens. *)
let core_triggers solution triggers =
  let c = Chase.Core_solution.core solution in
  if Instance.equal c solution then triggers
  else
    List.filter_map
      (fun (tr : Chase.Trigger.t) ->
        match List.filter (fun t -> Instance.mem t c) tr.Chase.Trigger.tuples with
        | [] -> None
        | tuples -> Some { tr with Chase.Trigger.tuples })
      triggers

let stats_of_result ?(semantics = Corroborated) ?(core = false) ~j ~index tgd
    (result : Chase.result) =
  let triggers =
    if core then core_triggers result.Chase.solution result.Chase.triggers
    else result.Chase.triggers
  in
  fold_triggers ~semantics ~jx:(index_j j) ~index tgd triggers

module Session = struct
  type t = {
    source : Instance.t;
    source_index : Cq.Index.t Lazy.t;
    jx : j_index;
  }

  let make ~source ~j =
    { source; source_index = lazy (Cq.Index.build source); jx = index_j j }

  let chase s tgd =
    Chase.fire ~index:(Lazy.force s.source_index) s.source [ tgd ]

  (* the uncored fold reads the triggers only: the chased instance is
     built here, for the core stage, and nowhere else on this path *)
  let stats ?(semantics = Corroborated) ?(core = false) s ~index tgd triggers =
    let triggers =
      if core then core_triggers (Chase.solution_of triggers) triggers
      else triggers
    in
    fold_triggers ~semantics ~jx:s.jx ~index tgd triggers
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
