open Relational
open Logic

module Trigger = struct
  type t = {
    tgd_index : int;
    tgd : Tgd.t;
    vars : string array;
    values : Value.t array;
    tuples : Tuple.t list;
  }

  let subst t =
    let s = ref Subst.empty in
    Array.iteri (fun k x -> s := Subst.bind_exn x t.values.(k) !s) t.vars;
    !s

  (* the existentials' slots come last *)
  let nulls t =
    let n = Array.length t.values in
    let first = n - String_set.cardinal (Tgd.existential_vars t.tgd) in
    let set = ref Value.Set.empty in
    for k = first to n - 1 do
      set := Value.Set.add t.values.(k) !set
    done;
    !set

  let pp ppf t =
    Format.fprintf ppf "@[<h>%s[%a] => %a@]" t.tgd.Tgd.label Subst.pp (subst t)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         Tuple.pp)
      t.tuples
end

type result = {
  solution : Instance.t;
  triggers : Trigger.t list;
}

(* The slot of variable [x] among a plan's [vars]. *)
let slot_of vars x =
  let rec find k = if String.equal vars.(k) x then k else find (k + 1) in
  find 0

module Compiled = struct
  type cell =
    | Fixed of Value.t
    | Slot of int

  type t = {
    tgd : Tgd.t;
    plan : Cq.Plan.t;
    vars : string array;
    body : int;
    head : (string * cell array) array;
  }

  let make (tgd : Tgd.t) =
    let plan = Cq.Plan.compile tgd.Tgd.body in
    let body = Cq.Plan.vars plan in
    let existentials =
      Array.of_list (String_set.elements (Tgd.existential_vars tgd))
    in
    let vars = Array.append body existentials in
    let head =
      Array.of_list
        (List.map
           (fun (a : Atom.t) ->
             ( a.Atom.rel,
               Array.map
                 (function
                   | Term.Cst c -> Fixed (Value.Const c)
                   | Term.Var x -> Slot (slot_of vars x))
                 a.Atom.args ))
           tgd.Tgd.head)
    in
    { tgd; plan; vars; body = Array.length body; head }

  let values c nulls env =
    let values = Array.make (Array.length c.vars) (Value.Const "") in
    Array.blit env 0 values 0 c.body;
    for k = c.body to Array.length c.vars - 1 do
      values.(k) <- Null_source.fresh nulls
    done;
    values

  let tuple c values k =
    let rel, cells = c.head.(k) in
    {
      Tuple.rel;
      values = Array.map (function Fixed v -> v | Slot s -> values.(s)) cells;
    }

  (* [tuple] of the answer's trigger values, without building them *)
  let head_tuple c ~answer env k =
    let rel, cells = c.head.(k) in
    let first = (answer * (Array.length c.vars - c.body)) - c.body in
    let values = Array.make (Array.length cells) (Value.Const "") in
    for p = 0 to Array.length cells - 1 do
      values.(p) <-
        (match cells.(p) with
        | Fixed v -> v
        | Slot s -> if s < c.body then env.(s) else Value.Null (first + s))
    done;
    { Tuple.rel; values }
end

(* Instantiate one tgd over its body homomorphisms into the indexed source,
   inventing fresh nulls per firing. *)
let fire_tgd ~nulls ~tgd_index (c : Compiled.t) index =
  let heads = Array.length c.Compiled.head and triggers = ref [] in
  Cq.Plan.iter c.Compiled.plan index
    (Array.make c.Compiled.body (Value.Const ""))
    (fun env ->
      let values = Compiled.values c nulls env in
      let tuples = List.init heads (Compiled.tuple c values) in
      triggers :=
        {
          Trigger.tgd_index;
          tgd = c.Compiled.tgd;
          vars = c.Compiled.vars;
          values;
          tuples;
        }
        :: !triggers);
  List.rev !triggers

let runs_counter = Telemetry.Counter.make "chase.runs"

let triggers_counter = Telemetry.Counter.make "chase.triggers"

let tuples_counter = Telemetry.Counter.make "chase.tuples_produced"

let count_run ~triggers ~tuples =
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr runs_counter;
    Telemetry.Counter.add triggers_counter triggers;
    Telemetry.Counter.add tuples_counter tuples
  end

let fire ?nulls ?index src tgds =
  Telemetry.with_span "chase.run" @@ fun () ->
  let nulls = match nulls with Some n -> n | None -> Null_source.create () in
  (* one index over the source serves every tgd body; callers chasing the
     same source repeatedly (e.g. once per candidate) should build it once
     and pass it in *)
  let index = match index with Some i -> i | None -> Cq.Index.build src in
  let triggers =
    List.concat
      (List.mapi
         (fun i tgd -> fire_tgd ~nulls ~tgd_index:i (Compiled.make tgd) index)
         tgds)
  in
  count_run ~triggers:(List.length triggers)
    ~tuples:
      (List.fold_left
         (fun acc (tr : Trigger.t) -> acc + List.length tr.Trigger.tuples)
         0 triggers);
  triggers

let iter_answers (c : Compiled.t) index f =
  Telemetry.with_span "chase.run" @@ fun () ->
  let answers = ref 0 in
  Cq.Plan.iter c.Compiled.plan index
    (Array.make c.Compiled.body (Value.Const ""))
    (fun env ->
      f !answers env;
      incr answers);
  count_run ~triggers:!answers
    ~tuples:(!answers * Array.length c.Compiled.head);
  !answers

let solution_of triggers =
  List.fold_left
    (fun inst (tr : Trigger.t) -> Instance.add_all tr.Trigger.tuples inst)
    Instance.empty triggers

let run ?nulls ?index src tgds =
  let triggers = fire ?nulls ?index src tgds in
  { solution = solution_of triggers; triggers }

let universal_solution ?nulls ?index src tgds = (run ?nulls ?index src tgds).solution

let run_columnar ?nulls col tgds =
  run ?nulls ~index:col (Relational.Index.instance col) tgds

let check_result ~source { solution; triggers } =
  if not (Instance.equal (solution_of triggers) solution) then
    Error "solution is not the union of the trigger tuples"
  else
    let rec check_triggers seen = function
      | [] -> Ok ()
      | (tr : Trigger.t) :: rest ->
        let invented = Trigger.nulls tr in
        if not (Value.Set.is_empty (Value.Set.inter seen invented))
        then Error "two triggers share an invented null"
        else if
          List.exists
            (fun t ->
              not
                (Value.Set.subset (Tuple.nulls t)
                   (Value.Set.union seen invented)))
            tr.Trigger.tuples
        then Error "a trigger tuple carries a null no trigger invented"
        else
          let subst = Trigger.subst tr in
          let body_hom =
            List.for_all
              (fun atom ->
                match Subst.apply_atom subst atom with
                | Some t -> Instance.mem t source
                | None -> false)
              tr.Trigger.tgd.Tgd.body
          in
          if not body_hom then
            Error "a trigger substitution is not a body homomorphism"
          else if
            not
              (List.equal Tuple.equal tr.Trigger.tuples
                 (List.map
                    (Subst.apply_atom_exn subst)
                    tr.Trigger.tgd.Tgd.head))
          then Error "trigger tuples disagree with the instantiated head"
          else check_triggers (Value.Set.union seen invented) rest
    in
    check_triggers Value.Set.empty triggers

(* The body is compiled once, and the head once with the frontier as
   pre-bound slots, which each body answer fills before the head runs over
   the target; the first body answer with no head answer decides. *)
let satisfies_indexed ~source ~target (tgd : Tgd.t) =
  let body = Cq.Plan.compile tgd.Tgd.body in
  let frontier = String_set.elements (Tgd.frontier_vars tgd) in
  let head = Cq.Plan.compile ~bound:frontier tgd.Tgd.head in
  let body_vars = Cq.Plan.vars body in
  let from_body = List.map (slot_of body_vars) frontier in
  let head_env =
    Array.make (Array.length (Cq.Plan.vars head)) (Value.Const "")
  in
  let exception Extends in
  let exception Violated in
  match
    Cq.Plan.iter body source
      (Array.make (Array.length body_vars) (Value.Const ""))
      (fun env ->
        List.iteri (fun k s -> head_env.(k) <- env.(s)) from_body;
        match
          Cq.Plan.iter head target head_env (fun _ -> raise_notrace Extends)
        with
        | () -> raise_notrace Violated
        | exception Extends -> ())
  with
  | () -> true
  | exception Violated -> false

let satisfies ~source ~target tgd =
  satisfies_indexed ~source:(Cq.Index.build source)
    ~target:(Cq.Index.build target) tgd

let satisfies_all ~source ~target tgds =
  let source = Cq.Index.build source and target = Cq.Index.build target in
  List.for_all (satisfies_indexed ~source ~target) tgds
