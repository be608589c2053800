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
  cand_cost : Frac.t array;
  weights : weights;
}

let check_weights w =
  if w.w_unexplained <= 0 || w.w_errors <= 0 || w.w_size <= 0 then
    invalid_arg "Problem: weights must be positive"

let of_stats ?(weights = default_weights) ~j stats =
  check_weights weights;
  let tuples = Array.of_list (Instance.tuples j) in
  let tuple_index = Hashtbl.create (Array.length tuples) in
  Array.iteri (fun i t -> Hashtbl.replace tuple_index t i) tuples;
  let covers =
    Array.map
      (fun s ->
        Tuple.Map.fold
          (fun t d acc ->
            match Hashtbl.find_opt tuple_index t with
            | Some i -> (i, d) :: acc
            | None -> acc)
          s.Cover.covers []
        |> List.rev |> Array.of_list)
      stats
  in
  let cand_cost =
    Array.map
      (fun s ->
        Frac.of_int
          ((weights.w_errors * Cover.error_count s)
          + (weights.w_size * s.Cover.size)))
      stats
  in
  {
    candidates = Array.map (fun s -> s.Cover.tgd) stats;
    stats;
    tuples;
    covers;
    cand_cost;
    weights;
  }

let with_weights t weights =
  check_weights weights;
  let cand_cost =
    Array.map
      (fun s ->
        Frac.of_int
          ((weights.w_errors * Cover.error_count s) + (weights.w_size * s.Cover.size)))
      t.stats
  in
  { t with cand_cost; weights }

let make ?weights ?semantics ?(core = false) ?cache ~source ~j candidates =
  let stats =
    match cache with
    | None -> Cover.analyze ?semantics ~core ~source ~j candidates
    | Some cache ->
      (* Same per-candidate derivation as [Cover.analyze], through one
         [Cover.Session], each candidate memoized separately. The chase
         restarts its null labels per run, so the cached stats are
         position-independent and [Cache.tgd_stats] can re-index them for
         this candidate list. The data digest is computed once; the
         session builds its chase fixture and J index only on a miss, so a
         fully warm build touches neither the chase nor the data beyond
         this one rendering. *)
      let source_key, data_key = Cache.example_keys ~source ~j in
      let session = Cover.Session.make ~source ~j in
      (* The chase tier sits under the stats tier: a stats miss whose chase
         was already run for another target instance (a neighbouring sweep
         point) redoes only the coverage fold. *)
      let chase tgd =
        Cache.chase cache ~source_key tgd (fun () ->
            Cover.Session.chase session tgd)
      in
      Array.of_list
        (List.mapi
           (fun index tgd ->
             Cache.tgd_stats cache ?semantics ~core ~data_key ~index tgd
               (fun () ->
                 Cover.Session.stats ?semantics ~core session ~index tgd
                   (chase tgd)))
           candidates)
  in
  of_stats ?weights ~j stats

(* One pass into one frame, byte for byte the length-prefixed part list
   ["problem"; weights; each J tuple; each candidate's statistics]. Every J
   tuple is rendered once into [jtext]; a cover entry reuses its tuple's
   bytes through [t.covers], whose per-candidate order is the covers map's
   (every covered tuple is a tuple of J, so nothing in the map is missed). *)
let digest t =
  Telemetry.with_span "cache.key" (fun () ->
      let module K = Cache.Key in
      let jbuf = Buffer.create (64 * Array.length t.tuples) in
      let ends =
        Array.map
          (fun tu ->
            K.add_tuple jbuf tu;
            Buffer.length jbuf)
          t.tuples
      in
      let jtext = Buffer.contents jbuf in
      let add_j buf i =
        let start = if i = 0 then 0 else ends.(i - 1) in
        Buffer.add_substring buf jtext start (ends.(i) - start)
      in
      let frame = Buffer.create ((4 * String.length jtext) + 256) in
      let part = Buffer.create 256 in
      K.add_string_part frame "problem";
      Buffer.add_string part "w ";
      K.add_int part t.weights.w_unexplained;
      Buffer.add_char part ' ';
      K.add_int part t.weights.w_errors;
      Buffer.add_char part ' ';
      K.add_int part t.weights.w_size;
      K.add_part frame part;
      for i = 0 to Array.length t.tuples - 1 do
        Buffer.clear part;
        add_j part i;
        K.add_part frame part
      done;
      Array.iteri
        (fun c (s : Cover.tgd_stats) ->
          Buffer.clear part;
          K.add_enc part (Logic.Tgd.to_string s.Cover.tgd);
          Buffer.add_string part "|cost ";
          K.add_frac part t.cand_cost.(s.Cover.index);
          Array.iter
            (fun (i, d) ->
              Buffer.add_string part "|cover ";
              add_j part i;
              Buffer.add_char part ' ';
              K.add_frac part d)
            t.covers.(c);
          List.iter
            (fun tu ->
              Buffer.add_string part "|error ";
              K.add_tuple part tu)
            s.Cover.error_tuples;
          Buffer.add_string part "|produced ";
          K.add_int part s.Cover.produced;
          Buffer.add_string part "|size ";
          K.add_int part s.Cover.size;
          K.add_part frame part)
        t.stats;
      K.digest_frame frame)

let num_candidates t = Array.length t.candidates

let num_tuples t = Array.length t.tuples

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
