open Util

module Fmap = Map.Make (struct
  type t = Frac.t

  let compare = Frac.compare
end)

type t = {
  problem : Problem.t;
  sel : bool array;
  mult : Frac.t array;  (* per group: its multiplicity k *)
  n_tuples : Frac.t;  (* |J|: the uncoverable tuples and the groups' *)
  degrees : int Fmap.t array;
      (* per group: degree → how many selected candidates cover it at that
         degree; [explains] is the maximum key *)
  best : Frac.t array;  (* cached multiset maxima ([Frac.zero] when empty) *)
  mutable covered : Frac.t;  (* Σ k·best *)
  mutable errors : int;
  mutable size : int;
  mutable cand_cost : Frac.t;
}

let add_degree st g d =
  let m = st.degrees.(g) in
  let n = match Fmap.find_opt d m with Some n -> n | None -> 0 in
  st.degrees.(g) <- Fmap.add d (n + 1) m;
  if Frac.(st.best.(g) < d) then begin
    st.covered <- Frac.add st.covered (Frac.mul st.mult.(g) (Frac.sub d st.best.(g)));
    st.best.(g) <- d
  end

let remove_degree st g d =
  let m = st.degrees.(g) in
  let n = Fmap.find d m in
  let m' = if n = 1 then Fmap.remove d m else Fmap.add d (n - 1) m in
  st.degrees.(g) <- m';
  if n = 1 && Frac.equal d st.best.(g) then begin
    let next =
      match Fmap.max_binding_opt m' with
      | Some (d', _) -> d'
      | None -> Frac.zero
    in
    st.covered <- Frac.sub st.covered (Frac.mul st.mult.(g) (Frac.sub st.best.(g) next));
    st.best.(g) <- next
  end

let select st c =
  let p = st.problem in
  st.sel.(c) <- true;
  Array.iter (fun (g, d) -> add_degree st g d) p.Problem.group_covers.(c);
  st.errors <- st.errors + Cover.error_count p.Problem.stats.(c);
  st.size <- st.size + p.Problem.stats.(c).Cover.size;
  st.cand_cost <- Frac.add st.cand_cost p.Problem.cand_cost.(c)

let deselect st c =
  let p = st.problem in
  st.sel.(c) <- false;
  Array.iter (fun (g, d) -> remove_degree st g d) p.Problem.group_covers.(c);
  st.errors <- st.errors - Cover.error_count p.Problem.stats.(c);
  st.size <- st.size - p.Problem.stats.(c).Cover.size;
  st.cand_cost <- Frac.sub st.cand_cost p.Problem.cand_cost.(c)

(* Hot-path instrumentation: when telemetry is disabled each counter call
   is a single atomic-load-and-branch (< 2% on the bench flip kernel). *)
let flips_counter = Telemetry.Counter.make "incremental.flips"

let probes_counter = Telemetry.Counter.make "incremental.probes"

let flip st c =
  Telemetry.Counter.incr flips_counter;
  if st.sel.(c) then deselect st c else select st c

let create (p : Problem.t) sel =
  if Array.length sel <> Problem.num_candidates p then
    invalid_arg "Incremental.create: selection length mismatch";
  let n_groups = Problem.num_groups p in
  let st =
    {
      problem = p;
      sel = Array.make (Problem.num_candidates p) false;
      mult = Array.map Frac.of_int p.Problem.group_size;
      n_tuples =
        Frac.of_int (Array.fold_left ( + ) p.Problem.uncoverable p.Problem.group_size);
      degrees = Array.make n_groups Fmap.empty;
      best = Array.make n_groups Frac.zero;
      covered = Frac.zero;
      errors = 0;
      size = 0;
      cand_cost = Frac.zero;
    }
  in
  Array.iteri (fun c selected -> if selected then select st c) sel;
  st

let flip_delta st c =
  Telemetry.Counter.incr probes_counter;
  let p = st.problem in
  let w1 = Frac.of_int p.Problem.weights.Problem.w_unexplained in
  if st.sel.(c) then
    (* Dropping [c]: each group it covers at the current maximum with
       multiplicity one falls back to the next-largest degree. *)
    let lost =
      Array.fold_left
        (fun acc (g, d) ->
          if Frac.(d < st.best.(g)) then acc
          else if Fmap.find d st.degrees.(g) > 1 then acc
          else
            let next =
              match
                Fmap.find_last_opt
                  (fun d' -> Frac.compare d' d < 0)
                  st.degrees.(g)
              with
              | Some (d', _) -> d'
              | None -> Frac.zero
            in
            Frac.add acc (Frac.mul st.mult.(g) (Frac.sub d next)))
        Frac.zero p.Problem.group_covers.(c)
    in
    Frac.sub (Frac.mul w1 lost) p.Problem.cand_cost.(c)
  else
    let gained =
      Array.fold_left
        (fun acc (g, d) ->
          if Frac.(st.best.(g) < d) then
            Frac.add acc (Frac.mul st.mult.(g) (Frac.sub d st.best.(g)))
          else acc)
        Frac.zero p.Problem.group_covers.(c)
    in
    Frac.sub p.Problem.cand_cost.(c) (Frac.mul w1 gained)

let unexplained st =
  Frac.mul
    (Frac.of_int st.problem.Problem.weights.Problem.w_unexplained)
    (Frac.sub st.n_tuples st.covered)

let value st = Frac.add (unexplained st) st.cand_cost

let breakdown st =
  let unexplained = unexplained st in
  {
    Objective.unexplained;
    errors = st.errors;
    size = st.size;
    total = Frac.add unexplained st.cand_cost;
  }

let is_selected st c = st.sel.(c)

let selection st = Array.copy st.sel

let problem st = st.problem
