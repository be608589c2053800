module Smap = Map.Make (String)

exception Unsatisfiable_hard_rule of string

type ground_rule = {
  rule_index : int;
  expr : Linexpr.t;
  squared : bool;
}

type t = {
  model : Hlmrf.t;
  atoms : Gatom.t array;
  index : int Gatom.Map.t;
  constant_energy : float;
  groundings : int;
  soft_groundings : ground_rule list;
}

(* A pending potential before variable indices are final. *)
type pending = {
  weight : float option;
  squared : bool;
  expr : Linexpr.t;
  label : string;
  rule_index : int;
}

let subst_term subst = function
  | Rule.C c -> Some c
  | Rule.V v -> Smap.find_opt v subst

let ground_atom subst (lit : Rule.literal) =
  let args =
    List.map
      (fun term ->
        match subst_term subst term with
        | Some c -> c
        | None -> invalid_arg "Grounding: unbound variable in literal")
      lit.Rule.args
  in
  Gatom.make lit.Rule.pred args

(* Try to extend [subst] so that [lit]'s arguments match the ground atom. *)
let match_literal subst (lit : Rule.literal) (atom : Gatom.t) =
  let rec loop subst terms k =
    match terms with
    | [] -> Some subst
    | t :: rest -> (
      let arg = atom.Gatom.args.(k) in
      match t with
      | Rule.C c -> if String.equal c arg then loop subst rest (k + 1) else None
      | Rule.V v -> (
        match Smap.find_opt v subst with
        | Some bound ->
          if String.equal bound arg then loop subst rest (k + 1) else None
        | None -> loop (Smap.add v arg subst) rest (k + 1)))
  in
  if List.length lit.Rule.args <> Array.length atom.Gatom.args then None
  else loop subst lit.Rule.args 0

(* All substitutions binding the rule's variables, obtained by joining the
   positive closed body literals over observed atoms with non-zero truth. *)
let bindings db (rule : Rule.t) =
  let closed lit =
    match Database.predicate db lit.Rule.pred with
    | p -> p.Predicate.closed
    | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Grounding: unknown predicate %s in rule %s"
           lit.Rule.pred rule.Rule.label)
  in
  let anchors =
    List.filter (fun l -> l.Rule.positive && closed l) rule.Rule.body
  in
  let rec join subst = function
    | [] -> [ subst ]
    | lit :: rest ->
      Database.observed_of db lit.Rule.pred
      |> List.concat_map (fun (atom, truth) ->
             if truth <= 0. then []
             else
               match match_literal subst lit atom with
               | None -> []
               | Some subst -> join subst rest)
  in
  (* Also force a well-formedness check: every rule variable must be bound. *)
  let bound_vars =
    List.fold_left
      (fun acc lit ->
        List.fold_left
          (fun acc t -> match t with Rule.V v -> v :: acc | Rule.C _ -> acc)
          acc lit.Rule.args)
      [] anchors
  in
  List.iter
    (fun v ->
      if not (List.mem v bound_vars) then
        invalid_arg
          (Printf.sprintf
             "Grounding: variable %s of rule %s is not bound by a positive \
              closed body literal"
             v rule.Rule.label))
    (Rule.vars rule);
  join Smap.empty anchors

(* Distance-to-satisfaction expression of one grounding, over a growing
   variable table. *)
let clause_expr db var_index next_var subst (rule : Rule.t) =
  let coeffs = ref [] in
  let constant = ref 1. in
  let add_truth ~sign lit =
    (* contribution of a clause literal with sign [sign] on [lit]'s atom:
       positive: -I(A);  negative: -1 + I(A) *)
    let atom = ground_atom subst lit in
    let p = Database.predicate db lit.Rule.pred in
    if p.Predicate.closed then begin
      let v = Option.value ~default:0. (Database.truth db atom) in
      if sign then constant := !constant -. v
      else constant := !constant -. (1. -. v)
    end
    else begin
      let idx =
        match Gatom.Map.find_opt atom !var_index with
        | Some i -> i
        | None ->
          let i = !next_var in
          incr next_var;
          var_index := Gatom.Map.add atom i !var_index;
          i
      in
      if sign then coeffs := (idx, -1.) :: !coeffs
      else begin
        constant := !constant -. 1.;
        coeffs := (idx, 1.) :: !coeffs
      end
    end
  in
  (* Body literals appear negated in the clause, head literals as-is. *)
  List.iter (fun l -> add_truth ~sign:(not l.Rule.positive) l) rule.Rule.body;
  List.iter (fun l -> add_truth ~sign:l.Rule.positive l) rule.Rule.head;
  Linexpr.make !coeffs !constant

let groundings_counter = Telemetry.Counter.make "psl.groundings"

let ground db rules =
  Telemetry.with_span "psl.ground" @@ fun () ->
  let var_index = ref Gatom.Map.empty in
  let next_var = ref 0 in
  let pendings = ref [] in
  let constant_energy = ref 0. in
  let groundings = ref 0 in
  List.iteri
    (fun rule_index (rule : Rule.t) ->
      List.iter
        (fun subst ->
          let expr = clause_expr db var_index next_var subst rule in
          let upper_bound =
            List.fold_left
              (fun acc (_, c) -> acc +. Float.max 0. c)
              expr.Linexpr.constant expr.Linexpr.coeffs
          in
          if upper_bound <= 0. then () (* trivially satisfied everywhere *)
          else if expr.Linexpr.coeffs = [] then begin
            (* constant violation *)
            match rule.Rule.weight with
            | None -> raise (Unsatisfiable_hard_rule rule.Rule.label)
            | Some w ->
              let d = Float.max 0. expr.Linexpr.constant in
              incr groundings;
              constant_energy :=
                !constant_energy +. (w *. if rule.Rule.squared then d *. d else d)
          end
          else begin
            incr groundings;
            pendings :=
              {
                weight = rule.Rule.weight;
                squared = rule.Rule.squared;
                expr;
                label = rule.Rule.label;
                rule_index;
              }
              :: !pendings
          end)
        (bindings db rule))
    rules;
  let model = Hlmrf.create ~num_vars:!next_var in
  List.iter
    (fun p ->
      match p.weight with
      | None -> Hlmrf.add_constraint model (Hlmrf.Leq p.expr)
      | Some w ->
        Hlmrf.add_potential model
          (Hlmrf.Hinge { weight = w; expr = p.expr; squared = p.squared }))
    (List.rev !pendings);
  let atoms = Array.make !next_var (Gatom.make "_" [ "_" ]) in
  Gatom.Map.iter (fun atom i -> atoms.(i) <- atom) !var_index;
  let soft_groundings =
    List.rev !pendings
    |> List.filter_map (fun p ->
           match p.weight with
           | None -> None
           | Some _ ->
             Some { rule_index = p.rule_index; expr = p.expr; squared = p.squared })
  in
  Telemetry.Counter.add groundings_counter !groundings;
  {
    model;
    atoms;
    index = !var_index;
    constant_energy = !constant_energy;
    groundings = !groundings;
    soft_groundings;
  }

let var_of t atom = Gatom.Map.find_opt atom t.index

let truth_in t solution atom =
  Option.map (fun i -> solution.(i)) (var_of t atom)

let map_inference ?options t =
  Telemetry.with_span "psl.infer" (fun () -> Admm.solve ?options t.model)

let rule_distances t ~num_rules x =
  let d = Array.make num_rules 0. in
  List.iter
    (fun (g : ground_rule) ->
      let v = Float.max 0. (Linexpr.eval g.expr x) in
      d.(g.rule_index) <- d.(g.rule_index) +. (if g.squared then v *. v else v))
    t.soft_groundings;
  d
