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

let error_count stats = List.length stats.error_tuples

(* [rows] numbers each tuple by its place in [Instance.tuples j] *)
let degrees ~j stats =
  let tuples = Array.of_list (Instance.tuples j) in
  Array.fold_right (fun (i, d) acc -> (tuples.(i), d) :: acc) stats.rows []

let covers ~j stats t =
  match List.find_opt (fun (t', _) -> Tuple.equal t t') (degrees ~j stats) with
  | Some (_, d) -> d
  | None -> Frac.zero

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
   constants or join on a null. [best] and [raised] are scratch space for
   the candidate being folded: the largest number of positions any of its
   chase tuples accounts for in each row (0 for none yet), and how many
   rows that is above 0. *)
type rel_index = {
  rows : Tuple.t array;
  degrees : Frac.t array array;
      (** per arity [a > 0] of some row: [k/a] reduced, for [k = 0 .. a] *)
  offset : int;
      (** tuples of [J] in relations named before this one: row [r] is
          tuple [offset + length rows - 1 - r] of [Instance.tuples j] *)
  all_rows : int list;
  postings : int list Value.Tbl.t option array;
  best : int array;
  mutable raised : int;
}

(* J indexed for one analysis, shared by all of its candidates. Each
   relation is indexed on its first probe, so relations no candidate
   reaches cost nothing. The tables are mutated as they fill and as
   candidates are folded: an index belongs to one domain. [touched] lists
   the relations in which the current candidate raised some row's [best]
   from 0. *)
type j_index = {
  j : Instance.t;
  offsets : (string, int) Hashtbl.t Lazy.t;  (** per relation: its [offset] *)
  rels : (string, rel_index) Hashtbl.t;
  mutable touched : rel_index list;
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
    (* a row of arity 0 has no position to cover, so no degree *)
    let degrees = Array.make (width + 1) [||] in
    Array.iter
      (fun t ->
        let a = Tuple.arity t in
        if a > 0 && Array.length degrees.(a) = 0 then
          degrees.(a) <- Array.init (a + 1) (fun k -> Frac.make k a))
      rows;
    let ri =
      {
        rows;
        degrees;
        offset =
          Option.value ~default:0 (Hashtbl.find_opt (Lazy.force jx.offsets) rel);
        all_rows = List.init (Array.length rows) Fun.id;
        postings = Array.make width None;
        best = Array.make (Array.length rows) 0;
        raised = 0;
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
    if ri.best.(r) = 0 then begin
      if ri.raised = 0 then jx.touched <- ri :: jx.touched;
      ri.raised <- ri.raised + 1
    end;
    ri.best.(r) <- count
  end

(* The current candidate's coverage degrees, read off and cleared: each
   touched row's best count over its arity, numbered by its row in
   [Instance.tuples j]. They come in tuple order: the touched relations in
   the offsets' order (their names' order), each one's [best] read in
   ascending row order up to its last touched row. *)
let take_covers jx =
  let rels = List.sort (fun a b -> Int.compare a.offset b.offset) jx.touched in
  let total = List.fold_left (fun n ri -> n + ri.raised) 0 rels in
  let rows = Array.make total (0, Frac.zero) and k = ref 0 in
  List.iter
    (fun ri ->
      let last = Array.length ri.rows - 1 and r = ref 0 in
      while ri.raised > 0 do
        let count = ri.best.(!r) in
        if count > 0 then begin
          rows.(!k) <-
            (ri.offset + last - !r, ri.degrees.(Tuple.arity ri.rows.(!r)).(count));
          incr k;
          ri.best.(!r) <- 0;
          ri.raised <- ri.raised - 1
        end;
        incr r
      done)
    rels;
  jx.touched <- [];
  rows

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
   occurrence. Every answer that writes no source null into the head has
   the head template's layout, so [fold_answers] lays a group out once per
   candidate, and the trigger-fed fold reuses the last group it laid out
   through [group_for]. *)
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

(* Clears the per-trigger state of a group about to be folded again. *)
let reset g =
  Array.fill g.best 0 (Array.length g.best) 0;
  Array.fill g.found 0 (Array.length g.found) false;
  Array.fill g.settled 0 (Array.length g.settled) false;
  g.probed <- 0;
  g.leaves <- 0

(* The group for [tuples]: [last] with its per-trigger state reset when
   the layout is the same, else a new group. *)
let group_for jx last tuples =
  match last with
  | Some g when same_layout g tuples ->
    g.tuples <- tuples;
    reset g;
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

(* Folds one trigger group. *)
let fold_group ~semantics ~jx g =
  explore ~semantics ~jx g 0;
  if Telemetry.enabled () then begin
    Telemetry.Counter.add rows_probed g.probed;
    Telemetry.Counter.add configurations g.leaves
  end

(* Prepends the folded group's error tuples, [tuple i] for group tuple
   [i], to [errors]. *)
let add_errors g tuple errors =
  let errors = ref errors in
  Array.iteri (fun i found -> if not found then errors := tuple i :: !errors) g.found;
  !errors

let stats_of ~index tgd ~errors ~produced jx =
  {
    index;
    tgd;
    covers = Tuple.Map.empty;
    rows = take_covers jx;
    error_tuples = List.rev errors;
    produced;
    size = Tgd.size tgd;
  }

let fold_triggers ~semantics ~jx ~index tgd triggers =
  let errors, produced, _ =
    List.fold_left
      (fun (errors, produced, last) (tr : Chase.Trigger.t) ->
        let tuples = Array.of_list tr.Chase.Trigger.tuples in
        let g = group_for jx last tuples in
        fold_group ~semantics ~jx g;
        ( add_errors g (Array.get tuples) errors,
          produced + Array.length tuples,
          Some g ))
      ([], 0, None) triggers
  in
  stats_of ~index tgd ~errors ~produced jx

(* The fold on the uncored path: the candidate's body answers over the
   source, each folded as the trigger group [Chase.fire] would build from
   it, with no trigger built. An answer that writes no source null into
   the head gives a group of the head template's layout: each head
   position a constant, a body variable (a constant position) or an
   existential (a null, numbered by first occurrence). That group is laid
   out once, on the first such answer, and each answer writes its body
   values into the group's tuples in place; the null positions are never
   read. Only an error tuple is built, with the labels [Chase.fire] would
   have drawn. An answer that writes a source null into the head may have
   another layout, or share a null with the ones [Chase.fire] invents, so
   it is instantiated as [Chase.fire] would and goes through [group_for],
   like a trigger. *)
let fold_answers ~semantics ~jx ~index source_index tgd =
  let module C = Chase.Compiled in
  let c = C.make tgd in
  let body = c.C.body and heads = Array.length c.C.head in
  (* per head position filled from the body: its atom, position and slot *)
  let writes = ref [] in
  Array.iteri
    (fun k (_, cells) ->
      Array.iteri
        (fun pos -> function
          | C.Slot s when s < body -> writes := (k, pos, s) :: !writes
          | _ -> ())
        cells)
    c.C.head;
  let writes = Array.of_list !writes in
  let template =
    lazy
      (group_of jx
         (Array.map
            (fun (rel, cells) ->
              let cell = function
                | C.Fixed v -> v
                | C.Slot s -> if s < body then Value.Const "" else Value.Null s
              in
              { Tuple.rel; values = Array.map cell cells })
            c.C.head))
  in
  let rec writes_null env w =
    w < Array.length writes
    &&
    let _, _, s = writes.(w) in
    Value.is_null env.(s) || writes_null env (w + 1)
  in
  let errors = ref [] and last = ref None in
  let answers =
    Chase.iter_answers c source_index @@ fun a env ->
    if writes_null env 0 then begin
      let tuples = Array.init heads (C.head_tuple c ~answer:a env) in
      let g = group_for jx !last tuples in
      last := Some g;
      fold_group ~semantics ~jx g;
      errors := add_errors g (Array.get tuples) !errors
    end
    else begin
      let g = Lazy.force template in
      reset g;
      for w = 0 to Array.length writes - 1 do
        let k, pos, s = writes.(w) in
        g.tuples.(k).Tuple.values.(pos) <- env.(s)
      done;
      fold_group ~semantics ~jx g;
      if Array.mem false g.found then
        errors := add_errors g (C.head_tuple c ~answer:a env) !errors
    end
  in
  stats_of ~index tgd ~errors:!errors ~produced:(answers * heads) jx

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

(* A fold against a fresh index of [j], with [covers] filled: the fold
   outside a session, the traced benchmark's path. Nothing a selection
   runs reads [covers]. Each covered row's tuple is read from the relation
   the fold indexed for it, so this lists no tuple of [j]. *)
let stats_of_result ?(semantics = Corroborated) ?(core = false) ~j ~index tgd
    (result : Chase.result) =
  let triggers =
    if core then core_triggers result.Chase.solution result.Chase.triggers
    else result.Chase.triggers
  in
  let jx = index_j j in
  let stats = fold_triggers ~semantics ~jx ~index tgd triggers in
  let rels = Hashtbl.fold (fun _ ri acc -> ri :: acc) jx.rels [] in
  let tuple i =
    let holds ri = i >= ri.offset && i < ri.offset + Array.length ri.rows in
    let ri = List.find holds rels in
    ri.rows.(ri.offset + Array.length ri.rows - 1 - i)
  in
  let covers =
    Array.fold_left
      (fun acc (i, d) -> Tuple.Map.add (tuple i) d acc)
      Tuple.Map.empty stats.rows
  in
  { stats with covers }

module Session = struct
  type t = {
    source : Instance.t;
    source_index : Cq.Index.t Lazy.t;
    jx : j_index;
  }

  let make ~source ~j =
    { source; source_index = lazy (Cq.Index.build source); jx = index_j j }

  (* only the core stage reads triggers and the chased instance, so only
     [~core:true] builds them *)
  let stats ?(semantics = Corroborated) ?(core = false) s ~index tgd =
    let source_index = Lazy.force s.source_index in
    if core then
      let triggers = Chase.fire ~index:source_index s.source [ tgd ] in
      fold_triggers ~semantics ~jx:s.jx ~index tgd
        (core_triggers (Chase.solution_of triggers) triggers)
    else fold_answers ~semantics ~jx:s.jx ~index source_index tgd
end

let analyze ?semantics ?core ~source ~j tgds =
  Telemetry.with_span "cover.analyze" @@ fun () ->
  let s = Session.make ~source ~j in
  Array.of_list
    (List.mapi (fun index tgd -> Session.stats ?semantics ?core s ~index tgd) tgds)
