open Relational
open Util

type weights = {
  w_unexplained : int;
  w_errors : int;
  w_size : int;
}

let default_weights = { w_unexplained = 1; w_errors = 1; w_size = 1 }

type t = {
  candidates : Logic.Tgd.t array;
  stats : Cover.tgd_stats array;
  tuples : Tuple.t array;
  covers : (int * Frac.t) array array;
  group_size : int array;
  group_covers : (int * Frac.t) array array;
  uncoverable : int;
  cand_cost : Frac.t array;
  weights : weights;
  memo : string option Atomic.t;
}

let check_weights w =
  if w.w_unexplained <= 0 || w.w_errors <= 0 || w.w_size <= 0 then
    invalid_arg "Problem: weights must be positive"

(* w2·errors + w3·size in checked arithmetic: [Frac.Overflow], not a wrap *)
let costs weights stats =
  Array.map
    (fun s ->
      Frac.add
        (Frac.mul (Frac.of_int weights.w_errors) (Frac.of_int (Cover.error_count s)))
        (Frac.mul (Frac.of_int weights.w_size) (Frac.of_int s.Cover.size)))
    stats

(* The support groups by partition refinement. Every tuple starts in class
   0, the empty support. Each candidate in turn moves the tuples it covers
   to a fresh class per (class, degree) pair, so after the last candidate
   two tuples share a class exactly when they share a support, degrees
   compared as exact fractions. Groups are the non-empty classes, numbered
   in the order of their first tuple. *)
let lift ~n_tuples covers =
  let cls = Array.make n_tuples 0 in
  (* a class is made per cover entry at most *)
  let classes = Array.fold_left (fun n rows -> n + Array.length rows) 1 covers in
  (* [moved.(k) = c]: candidate [c] moved class [k]'s tuples at degree
     [num.(k)/den.(k)] to [target.(k)]; the pairs of [k] with another
     degree, rare, are in [spill]. A degree is kept as its normal form's
     two ints: equal ints are equal fractions, and storing them allocates
     nothing. *)
  let moved = Array.make classes (-1) in
  let num = Array.make classes 0 and den = Array.make classes 0 in
  let target = Array.make classes 0 in
  let spill = Hashtbl.create 8 in
  let next = ref 1 in
  Array.iteri
    (fun c rows ->
      if Hashtbl.length spill > 0 then Hashtbl.reset spill;
      Array.iter
        (fun (ti, d) ->
          let k = cls.(ti) in
          if moved.(k) <> c then begin
            moved.(k) <- c;
            num.(k) <- Frac.num d;
            den.(k) <- Frac.den d;
            target.(k) <- !next;
            incr next
          end;
          if num.(k) = Frac.num d && den.(k) = Frac.den d then cls.(ti) <- target.(k)
          else
            let key = (k, Frac.num d, Frac.den d) in
            match Hashtbl.find_opt spill key with
            | Some k' -> cls.(ti) <- k'
            | None ->
              Hashtbl.add spill key !next;
              cls.(ti) <- !next;
              incr next)
        rows)
    covers;
  let group_of_class = Array.make !next (-1) in
  let groups = ref 0 in
  let group =
    Array.map
      (fun c ->
        if c = 0 then -1
        else begin
          if group_of_class.(c) < 0 then begin
            group_of_class.(c) <- !groups;
            incr groups
          end;
          group_of_class.(c)
        end)
      cls
  in
  let group_size = Array.make !groups 0 in
  let uncoverable = ref 0 in
  Array.iter
    (fun g -> if g < 0 then incr uncoverable else group_size.(g) <- group_size.(g) + 1)
    group;
  (* one entry per group a candidate reaches: its tuples share the degree *)
  let last = Array.make !groups (-1) in
  let group_covers =
    Array.mapi
      (fun c rows ->
        let entries = ref [] in
        Array.iter
          (fun (ti, d) ->
            let g = group.(ti) in
            if last.(g) <> c then begin
              last.(g) <- c;
              entries := (g, d) :: !entries
            end)
          rows;
        let entries = Array.of_list !entries in
        Array.sort (fun (g, _) (g', _) -> Int.compare g g') entries;
        entries)
      covers
  in
  (group_size, group_covers, !uncoverable)

(* [stats]' [rows] number the tuples by their place in [tuples] *)
let build weights tuples stats =
  let covers = Array.map (fun s -> s.Cover.rows) stats in
  let group_size, group_covers, uncoverable =
    lift ~n_tuples:(Array.length tuples) covers
  in
  {
    candidates = Array.map (fun s -> s.Cover.tgd) stats;
    stats;
    tuples;
    covers;
    group_size;
    group_covers;
    uncoverable;
    cand_cost = costs weights stats;
    weights;
    memo = Atomic.make None;
  }

(* the fold numbered each covered tuple by its row in [Instance.tuples j] *)
let of_stats ?(weights = default_weights) ~j stats =
  check_weights weights;
  build weights (Array.of_list (Instance.tuples j)) stats

(* union-find over [group_covers], the root of a set its least candidate *)
let components t =
  let m = Array.length t.candidates in
  let parent = Array.init m Fun.id in
  let rec find c =
    if parent.(c) = c then c
    else begin
      let root = find parent.(c) in
      parent.(c) <- root;
      root
    end
  in
  (* first.(g) = the first candidate seen covering group g *)
  let first = Array.make (Array.length t.group_size) (-1) in
  Array.iteri
    (fun c covers ->
      Array.iter
        (fun (g, _) ->
          if first.(g) < 0 then first.(g) <- c
          else
            let a = find first.(g) and b = find c in
            if a <> b then parent.(max a b) <- min a b)
        covers)
    t.group_covers;
  let members = Array.make m [] in
  for c = m - 1 downto 0 do
    members.(find c) <- c :: members.(find c)
  done;
  Array.to_list members
  |> List.filter_map (function [] -> None | cs -> Some (Array.of_list cs))
  |> Array.of_list

let restrict t cands =
  (* each covered parent row's row here, in the parent's order; hashed, so
     a component's build does not scale with the parent's [tuples] *)
  let row = Hashtbl.create 16 in
  Array.iter (fun c -> Array.iter (fun (i, _) -> Hashtbl.replace row i 0) t.covers.(c)) cands;
  let kept = Array.of_seq (Hashtbl.to_seq_keys row) in
  Array.sort Int.compare kept;
  Array.iteri (fun k i -> Hashtbl.replace row i k) kept;
  let renumber (i, d) = (Hashtbl.find row i, d) in
  let stats =
    Array.mapi
      (fun index c ->
        let s = t.stats.(c) in
        { s with Cover.index; rows = Array.map renumber s.Cover.rows })
      cands
  in
  build t.weights (Array.map (Array.get t.tuples) kept) stats

let with_weights t weights =
  check_weights weights;
  { t with cand_cost = costs weights t.stats; weights; memo = Atomic.make None }

(* One pass into one frame, byte for byte the length-prefixed part list
   ["problem"; weights; each J tuple; each candidate's statistics], each
   part rendered in place and framed when closed. Every J tuple is rendered
   once, as its own part; a cover entry copies its tuple's bytes from there
   through [t.covers], whose per-candidate order is [rows]' (tuple order;
   every covered tuple is a tuple of J, so no degree is missed). *)
let digest t =
  Telemetry.with_span "cache.key" (fun () ->
      let module K = Cache.Key in
      K.with_scratch @@ fun w ->
      K.add_string_part w "problem";
      let start = K.length w in
      K.add_string w "w ";
      K.add_int w t.weights.w_unexplained;
      K.add_char w ' ';
      K.add_int w t.weights.w_errors;
      K.add_char w ' ';
      K.add_int w t.weights.w_size;
      K.close_part w start;
      (* [first.(i)], [stop.(i)]: where J tuple [i]'s bytes lie in the frame *)
      let first = Array.make (Array.length t.tuples) 0 in
      let stop = Array.make (Array.length t.tuples) 0 in
      Array.iteri
        (fun i tu ->
          let start = K.length w in
          K.add_tuple w tu;
          let n = K.length w - start in
          K.close_part w start;
          stop.(i) <- K.length w;
          first.(i) <- stop.(i) - n)
        t.tuples;
      Array.iteri
        (fun c (s : Cover.tgd_stats) ->
          let start = K.length w in
          K.add_enc w (Logic.Tgd.to_string s.Cover.tgd);
          K.add_string w "|cost ";
          K.add_frac w t.cand_cost.(s.Cover.index);
          Array.iter
            (fun (i, d) ->
              K.add_string w "|cover ";
              K.add_copy w first.(i) stop.(i);
              K.add_char w ' ';
              K.add_frac w d)
            t.covers.(c);
          List.iter
            (fun tu ->
              K.add_string w "|error ";
              K.add_tuple w tu)
            s.Cover.error_tuples;
          K.add_string w "|produced ";
          K.add_int w s.Cover.produced;
          K.add_string w "|size ";
          K.add_int w s.Cover.size;
          K.close_part w start)
        t.stats;
      K.digest_frame w)

let key t =
  match Atomic.get t.memo with
  | Some k -> k
  | None ->
    let k = digest t in
    Atomic.set t.memo (Some k);
    k

let make ?(weights = default_weights) ?semantics ?(core = false) ?cache ~source
    ~j candidates =
  match cache with
  | None -> of_stats ~weights ~j (Cover.analyze ?semantics ~core ~source ~j candidates)
  | Some cache ->
    (* Same per-candidate derivation as [Cover.analyze], through one
       [Cover.Session], each candidate memoized separately. The chase
       restarts its null labels per run, so the cached stats are
       position-independent and [Cache.tgd_stats] can re-index them for
       this candidate list. The data digest is computed once; the session
       builds its chase fixture and J index only on a miss, so a fully warm
       build touches neither the chase nor the data beyond this one
       rendering. *)
    let source_key, data_key = Cache.example_keys ~source ~j in
    let session = Cover.Session.make ~source ~j in
    (* The chase tier sits under the stats tier: a stats miss whose chase
       was already run for another target instance (a neighbouring sweep
       point) redoes only the coverage fold. *)
    let chase tgd =
      Cache.chase cache ~source_key tgd (fun () ->
          Cover.Session.chase session tgd)
    in
    let keys =
      List.map (fun tgd -> Cache.stats_key ?semantics ~core ~data_key tgd) candidates
    in
    let stats =
      Array.of_list
        (List.mapi
           (fun index (key, tgd) ->
             Cache.tgd_stats cache ~key ~index (fun () ->
                 Cover.Session.stats ?semantics ~core session ~index tgd
                   (chase tgd)))
           (List.combine keys candidates))
    in
    let t = of_stats ~weights ~j stats in
    (* The build reads the weights, J (through [data_key]) and each
       candidate's stats key in list order; the stats keys cover the
       semantics, the core flag and the tgd text. *)
    let build =
      Printf.sprintf "w %d %d %d" weights.w_unexplained weights.w_errors
        weights.w_size
      :: data_key :: keys
    in
    Atomic.set t.memo (Some (Cache.problem_key cache ~build (fun () -> digest t)));
    t

let num_candidates t = Array.length t.candidates

let num_tuples t = Array.length t.tuples

let num_groups t = Array.length t.group_size

let selection_of_indices t indices =
  let sel = Array.make (num_candidates t) false in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length sel then
        invalid_arg "Problem.selection_of_indices: index out of range";
      sel.(i) <- true)
    indices;
  sel

let indices_of_selection sel =
  Array.to_list (Array.mapi (fun i b -> (i, b)) sel)
  |> List.filter_map (fun (i, b) -> if b then Some i else None)
