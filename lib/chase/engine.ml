open Relational
open Logic

module Trigger = struct
  type t = {
    tgd_index : int;
    tgd : Tgd.t;
    subst : Subst.t;
    tuples : Tuple.t list;
    nulls : Value.Set.t;
  }

  let pp ppf t =
    Format.fprintf ppf "@[<h>%s[%a] => %a@]" t.tgd.Tgd.label Subst.pp t.subst
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         Tuple.pp)
      t.tuples
end

type result = {
  solution : Instance.t;
  triggers : Trigger.t list;
}

(* Instantiate one tgd over its body homomorphisms into the indexed source,
   inventing fresh nulls per firing. *)
let fire_tgd ~nulls ~tgd_index (tgd : Tgd.t) index =
  let existentials = String_set.elements (Tgd.existential_vars tgd) in
  let fire subst =
    let subst, invented =
      List.fold_left
        (fun (s, inv) v ->
          let null = Null_source.fresh nulls in
          (Subst.bind_exn v null s, Value.Set.add null inv))
        (subst, Value.Set.empty) existentials
    in
    let tuples = List.map (Subst.apply_atom_exn subst) tgd.Tgd.head in
    { Trigger.tgd_index; tgd; subst; tuples; nulls = invented }
  in
  List.map fire (Cq.answers_indexed index tgd.Tgd.body)

let runs_counter = Telemetry.Counter.make "chase.runs"

let triggers_counter = Telemetry.Counter.make "chase.triggers"

let tuples_counter = Telemetry.Counter.make "chase.tuples_produced"

let fire ?nulls ?index src tgds =
  Telemetry.with_span "chase.run" @@ fun () ->
  let nulls = match nulls with Some n -> n | None -> Null_source.create () in
  (* one index over the source serves every tgd body; callers chasing the
     same source repeatedly (e.g. once per candidate) should build it once
     and pass it in *)
  let index = match index with Some i -> i | None -> Cq.Index.build src in
  let triggers =
    List.concat (List.mapi (fun i tgd -> fire_tgd ~nulls ~tgd_index:i tgd index) tgds)
  in
  if Telemetry.enabled () then begin
    Telemetry.Counter.incr runs_counter;
    Telemetry.Counter.add triggers_counter (List.length triggers);
    Telemetry.Counter.add tuples_counter
      (List.fold_left
         (fun acc (tr : Trigger.t) -> acc + List.length tr.Trigger.tuples)
         0 triggers)
  end;
  triggers

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
        if not (Value.Set.is_empty (Value.Set.inter seen tr.Trigger.nulls))
        then Error "two triggers share an invented null"
        else if
          List.exists
            (fun t ->
              not
                (Value.Set.subset (Tuple.nulls t)
                   (Value.Set.union seen tr.Trigger.nulls)))
            tr.Trigger.tuples
        then Error "a trigger tuple carries a null no trigger invented"
        else
          let body_hom =
            List.for_all
              (fun atom ->
                match Subst.apply_atom tr.Trigger.subst atom with
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
                    (Subst.apply_atom_exn tr.Trigger.subst)
                    tr.Trigger.tgd.Tgd.head))
          then Error "trigger tuples disagree with the instantiated head"
          else check_triggers (Value.Set.union seen tr.Trigger.nulls) rest
    in
    check_triggers Value.Set.empty triggers

let satisfies ~source ~target (tgd : Tgd.t) =
  let frontier = Tgd.frontier_vars tgd in
  Cq.answers source tgd.Tgd.body
  |> List.for_all (fun subst ->
         let restricted =
           List.fold_left
             (fun acc (v, x) ->
               if String_set.mem v frontier then Subst.bind_exn v x acc else acc)
             Subst.empty (Subst.bindings subst)
         in
         Cq.extensions target restricted tgd.Tgd.head <> [])

let satisfies_all ~source ~target tgds =
  List.for_all (satisfies ~source ~target) tgds
