type t = {
  predicates : Predicate.t list;
  observations : (Gatom.t * float) list;
  rules : Rule.t list;
}

type error = {
  line : int;
  message : string;
}

let pp_error ppf e = Format.fprintf ppf "line %d: %s" e.line e.message

exception Fail of string

let fail fmt = Format.kasprintf (fun msg -> raise (Fail msg)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.'

let check_ident what s =
  if s = "" then fail "empty %s" what;
  String.iter (fun c -> if not (is_ident_char c) then fail "bad %s %S" what s) s;
  s

(* "pred(a, B, c)" -> name, raw args *)
let parse_application s =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> fail "expected '(' in %s" s
  | Some i ->
    if not (String.length s > 0 && s.[String.length s - 1] = ')') then
      fail "expected ')' at the end of %s" s;
    let name = check_ident "predicate name" (String.trim (String.sub s 0 i)) in
    let inside = String.sub s (i + 1) (String.length s - i - 2) in
    let args =
      if String.trim inside = "" then []
      else
        String.split_on_char ',' inside
        |> List.map (fun a -> check_ident "argument" (String.trim a))
    in
    (name, args)

let term_of_string a =
  match a.[0] with
  | 'A' .. 'Z' | '_' -> Rule.V a
  | _ -> Rule.C a

let parse_literal s =
  let s = String.trim s in
  let positive, s =
    if String.length s > 0 && s.[0] = '!' then
      (false, String.trim (String.sub s 1 (String.length s - 1)))
    else (true, s)
  in
  let name, args = parse_application s in
  { Rule.positive; pred = name; args = List.map term_of_string args }

let split_top_level sep s =
  (* split on a character at paren depth 0 *)
  let parts = ref [] in
  let buf = Buffer.create 32 in
  let depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
        incr depth;
        Buffer.add_char buf c
      | ')' ->
        decr depth;
        Buffer.add_char buf c
      | c when c = sep && !depth = 0 ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let parse_literals s =
  if String.trim s = "" then []
  else List.map parse_literal (split_top_level '&' s)

let parse_predicate_line rest =
  (* "friend/2 closed" *)
  let words =
    String.split_on_char ' ' rest |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ spec ] | [ spec; "closed" ] -> (
    match String.split_on_char '/' spec with
    | [ name; arity ] -> (
      match int_of_string_opt arity with
      | Some a ->
        Predicate.make
          ~closed:(List.length words = 2)
          (check_ident "predicate name" name)
          a
      | None -> fail "bad arity in %s" spec)
    | _ -> fail "expected name/arity, got %s" spec)
  | _ -> fail "bad predicate declaration: %s" rest

let parse_observe_line rest =
  (* "friend(a, b) = 1.0" *)
  match split_top_level '=' rest with
  | [ atom; value ] -> (
    let name, args = parse_application atom in
    List.iter (fun a -> ignore (check_ident "argument" a)) args;
    let value = String.trim value in
    match float_of_string_opt value with
    | Some v when v >= 0. && v <= 1. -> (Gatom.make name args, v)
    | Some _ | None -> fail "bad truth value %s (expected a number in [0,1])" value)
  | _ -> fail "expected atom = value, got %s" rest

let parse_rule_line rest =
  (* "<label> <weight|hard> [squared]: body -> head" *)
  match String.index_opt rest ':' with
  | None -> fail "rule needs ':'"
  | Some i ->
    let heading = String.sub rest 0 i in
    let formula = String.sub rest (i + 1) (String.length rest - i - 1) in
    let label, weight, squared =
      match
        String.split_on_char ' ' heading |> List.filter (fun w -> w <> "")
      with
      | [ label; "hard" ] -> (label, None, false)
      | [ label; w ] -> (
        match float_of_string_opt w with
        | Some w -> (label, Some w, false)
        | None -> fail "bad weight %s" w)
      | [ label; w; "squared" ] -> (
        match float_of_string_opt w with
        | Some w -> (label, Some w, true)
        | None -> fail "bad weight %s" w)
      | _ -> fail "expected 'label weight[ squared]:' before the formula"
    in
    (* split on "->" at depth 0 *)
    let arrow = ref None in
    let depth = ref 0 in
    String.iteri
      (fun k c ->
        match c with
        | '(' -> incr depth
        | ')' -> decr depth
        | '-'
          when !depth = 0 && !arrow = None
               && k + 1 < String.length formula
               && formula.[k + 1] = '>' ->
          arrow := Some k
        | _ -> ())
      formula;
    (match !arrow with
    | None -> fail "rule needs '->'"
    | Some k ->
      let body = String.sub formula 0 k in
      let head = String.sub formula (k + 2) (String.length formula - k - 2) in
      Rule.make ~label:(check_ident "rule label" label) ~squared ~weight
        ~body:(parse_literals body) ~head:(parse_literals head) ())

let strip_prefix prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.equal (String.sub s 0 lp) prefix then
    Some (String.trim (String.sub s lp (String.length s - lp)))
  else None

let parse text =
  let parse_line acc line =
    let line = String.trim line in
    if line = "" || line.[0] = '#' then acc
    else
      match strip_prefix "predicate" line with
      | Some rest -> { acc with predicates = acc.predicates @ [ parse_predicate_line rest ] }
      | None -> (
        match strip_prefix "observe" line with
        | Some rest ->
          { acc with observations = acc.observations @ [ parse_observe_line rest ] }
        | None -> (
          match strip_prefix "rule" line with
          | Some rest -> { acc with rules = acc.rules @ [ parse_rule_line rest ] }
          | None -> fail "unknown directive: %s" line))
  in
  let lines = String.split_on_char '\n' text in
  let rec loop acc n = function
    | [] -> Ok acc
    | line :: rest -> (
      match parse_line acc line with
      | acc -> loop acc (n + 1) rest
      | exception Fail message -> Error { line = n; message }
      | exception Invalid_argument message -> Error { line = n; message })
  in
  loop { predicates = []; observations = []; rules = [] } 1 lines

let parse_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse text

let database t = Database.observe_all t.observations (Database.create t.predicates)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (p : Predicate.t) ->
      Format.fprintf ppf "predicate %s/%d%s@," p.Predicate.name p.Predicate.arity
        (if p.Predicate.closed then " closed" else ""))
    t.predicates;
  List.iter
    (fun (a, v) -> Format.fprintf ppf "observe %a = %g@," Gatom.pp a v)
    t.observations;
  List.iter
    (fun (r : Rule.t) ->
      let pp_lits ppf lits =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " & ")
          (fun ppf (l : Rule.literal) ->
            Format.fprintf ppf "%s%s(%s)"
              (if l.Rule.positive then "" else "!")
              l.Rule.pred
              (String.concat ", "
                 (List.map
                    (function Rule.V v -> v | Rule.C c -> c)
                    l.Rule.args)))
          ppf lits
      in
      Format.fprintf ppf "rule %s %s%s: %a -> %a@," r.Rule.label
        (match r.Rule.weight with None -> "hard" | Some w -> Printf.sprintf "%g" w)
        (if r.Rule.squared then " squared" else "")
        pp_lits r.Rule.body pp_lits r.Rule.head)
    t.rules;
  Format.fprintf ppf "@]"
