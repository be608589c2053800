type scenario =
  | Inline of string list
  | File of string

type expectation =
  | Objective of Util.Frac.t
  | Selected of string list
  | Value of Util.Frac.t * string list
  | Counter of string * int

type flag =
  | Expect_failure of string
  | Broken of string
  | Skip of string

type test = {
  name : string;
  scenario : scenario;
  solvers : string list;
  seed : int option;
  weights : (int * int * int) option;
  cache : bool;
  core : bool;
  expects : expectation list;
  flag : flag option;
}

type file = test list

let equal_expectation a b =
  match (a, b) with
  | Objective x, Objective y -> Util.Frac.equal x y
  | Selected xs, Selected ys -> List.equal String.equal xs ys
  | Value (x, xs), Value (y, ys) ->
    Util.Frac.equal x y && List.equal String.equal xs ys
  | Counter (n, c), Counter (m, d) -> String.equal n m && c = d
  | (Objective _ | Selected _ | Value _ | Counter _), _ -> false

let equal_test a b =
  String.equal a.name b.name
  && a.scenario = b.scenario
  && List.equal String.equal a.solvers b.solvers
  && a.seed = b.seed
  && a.weights = b.weights
  && a.cache = b.cache
  && a.core = b.core
  && List.equal equal_expectation a.expects b.expects
  && a.flag = b.flag

let equal_file = List.equal equal_test

(* --- lexing -------------------------------------------------------------- *)

exception Fail of int * string

let failf ln fmt = Printf.ksprintf (fun m -> raise (Fail (ln, m))) fmt

let is_space c = c = ' ' || c = '\t'

(* Tokens of one directive line: bare words (no whitespace, no quotes) and
   double-quoted strings with backslash escapes for quote, backslash,
   newline, carriage return and tab. *)
let tokens ln line =
  let n = String.length line in
  let rec skip i = if i < n && is_space line.[i] then skip (i + 1) else i in
  let rec go acc i =
    let i = skip i in
    if i >= n then List.rev acc
    else if line.[i] = '"' then begin
      let buf = Buffer.create 16 in
      let rec str j =
        if j >= n then failf ln "unterminated quoted string"
        else
          match line.[j] with
          | '"' -> j + 1
          | '\\' ->
            if j + 1 >= n then failf ln "unterminated escape"
            else begin
              (match line.[j + 1] with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | c -> failf ln "bad escape \\%c" c);
              str (j + 2)
            end
          | c ->
            Buffer.add_char buf c;
            str (j + 1)
      in
      let j = str (i + 1) in
      if j < n && not (is_space line.[j]) then
        failf ln "quoted token must be followed by whitespace";
      go (Buffer.contents buf :: acc) j
    end
    else begin
      let j = ref i in
      while !j < n && (not (is_space line.[!j])) && line.[!j] <> '"' do
        incr j
      done;
      if !j < n && line.[!j] = '"' then
        failf ln "unexpected '\"' inside a bare token";
      go (String.sub line i (!j - i) :: acc) !j
    end
  in
  go [] 0

(* A flag's reason: the rest of the line, either one quoted string (nothing
   but whitespace may follow it) or the raw remainder, trimmed. *)
let reason_of_rest ln rest =
  let rest =
    let i = ref 0 in
    while !i < String.length rest && is_space rest.[!i] do
      incr i
    done;
    String.sub rest !i (String.length rest - !i)
  in
  let r =
    if String.length rest > 0 && rest.[0] = '"' then
      match tokens ln rest with
      | [ r ] -> r
      | _ -> failf ln "a quoted reason must be the rest of the line"
    else begin
      let j = ref (String.length rest) in
      while !j > 0 && is_space rest.[!j - 1] do
        decr j
      done;
      String.sub rest 0 !j
    end
  in
  if r = "" then failf ln "a reason string is mandatory";
  r

let int_of_token ln what tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> failf ln "%s: expected an integer, found '%s'" what tok

let frac_of_token ln tok =
  let bad () = failf ln "bad fraction literal '%s' (expected N or N/D)" tok in
  match String.index_opt tok '/' with
  | None -> (
    match int_of_string_opt tok with
    | Some n -> Util.Frac.of_int n
    | None -> bad ())
  | Some i -> (
    let num = String.sub tok 0 i in
    let den = String.sub tok (i + 1) (String.length tok - i - 1) in
    match (int_of_string_opt num, int_of_string_opt den) with
    | Some n, Some d -> (
      match Util.Frac.make n d with
      | f -> f
      | exception Invalid_argument _ -> failf ln "zero denominator in '%s'" tok
      | exception Util.Frac.Overflow ->
        failf ln "fraction '%s' overflows native integers" tok)
    | _ -> bad ())

(* --- parsing ------------------------------------------------------------- *)

type builder = {
  b_name : string;
  b_line : int;  (** the [test] line, for end-of-block errors *)
  mutable b_scenario : scenario option;
  mutable b_solvers : string list option;
  mutable b_seed : int option;
  mutable b_weights : (int * int * int) option;
  mutable b_cache : bool;
  mutable b_core : bool;
  mutable b_expects : expectation list;  (** reversed *)
  mutable b_flag : flag option;
}

let finish b =
  let scenario =
    match b.b_scenario with
    | Some s -> s
    | None -> failf b.b_line "test '%s' has no scenario" b.b_name
  in
  let solvers = Option.value b.b_solvers ~default:[] in
  let expects = List.rev b.b_expects in
  if solvers = [] then
    List.iter
      (fun e ->
        match e with
        | Objective _ | Selected _ | Counter _ ->
          failf b.b_line
            "test '%s': objective/selected/counter expectations need a \
             'solver' directive"
            b.b_name
        | Value _ -> ())
      expects;
  {
    name = b.b_name;
    scenario;
    solvers;
    seed = b.b_seed;
    weights = b.b_weights;
    cache = b.b_cache;
    core = b.b_core;
    expects;
    flag = b.b_flag;
  }

let first_word line =
  let n = String.length line in
  let rec skip i = if i < n && is_space line.[i] then skip (i + 1) else i in
  let i = skip 0 in
  let j = ref i in
  while !j < n && not (is_space line.[!j]) do
    incr j
  done;
  (String.sub line i (!j - i), String.sub line !j (n - !j))

let parse text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let tests = ref [] in
  let current = ref None in
  let seen = Hashtbl.create 16 in
  let close () =
    match !current with
    | None -> ()
    | Some b ->
      tests := finish b :: !tests;
      current := None
  in
  let need ln what =
    match !current with
    | Some b -> b
    | None -> failf ln "'%s' before any 'test' line" what
  in
  let set_once ln what get set =
    let b = need ln what in
    if get b then failf ln "duplicate '%s' directive" what else set b
  in
  let i = ref 0 in
  (try
     while !i < n do
       let ln = !i + 1 in
       let line = lines.(!i) in
       let kw, rest = first_word line in
       incr i;
       if kw = "" || kw.[0] = '#' then ()
       else
         match kw with
         | "test" -> (
           close ();
           match tokens ln rest with
           | [ name ] when name <> "" ->
             if Hashtbl.mem seen name then
               failf ln "duplicate test name '%s'" name;
             Hashtbl.add seen name ();
             current :=
               Some
                 {
                   b_name = name;
                   b_line = ln;
                   b_scenario = None;
                   b_solvers = None;
                   b_seed = None;
                   b_weights = None;
                   b_cache = false;
                   b_core = false;
                   b_expects = [];
                   b_flag = None;
                 }
           | _ -> failf ln "'test' takes exactly one nonempty name")
         | "solver" ->
           set_once ln "solver"
             (fun b -> b.b_solvers <> None)
             (fun b ->
               match tokens ln rest with
               | [ spec ] ->
                 let names = String.split_on_char ',' spec in
                 if List.exists (fun s -> s = "") names then
                   failf ln "empty solver name in '%s'" spec;
                 b.b_solvers <- Some names
               | _ -> failf ln "'solver' takes one comma-separated name list")
         | "seed" ->
           set_once ln "seed"
             (fun b -> b.b_seed <> None)
             (fun b ->
               match tokens ln rest with
               | [ s ] -> b.b_seed <- Some (int_of_token ln "seed" s)
               | _ -> failf ln "'seed' takes exactly one integer")
         | "weights" ->
           set_once ln "weights"
             (fun b -> b.b_weights <> None)
             (fun b ->
               match tokens ln rest with
               | [ w1; w2; w3 ] ->
                 b.b_weights <-
                   Some
                     ( int_of_token ln "weights" w1,
                       int_of_token ln "weights" w2,
                       int_of_token ln "weights" w3 )
               | _ -> failf ln "'weights' takes exactly three integers")
         | "cache" ->
           set_once ln "cache"
             (fun b -> b.b_cache)
             (fun b ->
               match tokens ln rest with
               | [ "on" ] -> b.b_cache <- true
               | _ -> failf ln "'cache' takes exactly 'on'")
         | "core" ->
           set_once ln "core"
             (fun b -> b.b_core)
             (fun b ->
               match tokens ln rest with
               | [ "on" ] -> b.b_core <- true
               | _ -> failf ln "'core' takes exactly 'on'")
         | "scenario" ->
           set_once ln "scenario"
             (fun b -> b.b_scenario <> None)
             (fun b ->
               match tokens ln rest with
               | [ "file"; path ] when path <> "" ->
                 b.b_scenario <- Some (File path)
               | [ "inline" ] ->
                 if !i >= n || lines.(!i) <> "---" then
                   failf ln "'scenario inline' must be followed by '---'";
                 incr i;
                 let body = ref [] in
                 let closed = ref false in
                 while (not !closed) && !i < n do
                   if lines.(!i) = "---" then closed := true
                   else body := lines.(!i) :: !body;
                   incr i
                 done;
                 if not !closed then
                   failf ln "unterminated inline scenario (missing '---')";
                 b.b_scenario <- Some (Inline (List.rev !body))
               | _ -> failf ln "'scenario' takes 'file PATH' or 'inline'")
         | "expect" -> (
           let b = need ln "expect" in
           match tokens ln rest with
           | "objective" :: args -> (
             match args with
             | [ f ] -> b.b_expects <- Objective (frac_of_token ln f) :: b.b_expects
             | _ -> failf ln "'expect objective' takes exactly one fraction")
           | "selected" :: labels ->
             b.b_expects <- Selected labels :: b.b_expects
           | "value" :: args -> (
             match args with
             | f :: labels ->
               b.b_expects <- Value (frac_of_token ln f, labels) :: b.b_expects
             | [] -> failf ln "'expect value' takes a fraction then labels")
           | "counter" :: args -> (
             match args with
             | [ name; count ] when name <> "" ->
               b.b_expects <-
                 Counter (name, int_of_token ln "counter" count) :: b.b_expects
             | _ -> failf ln "'expect counter' takes a name and an integer")
           | kind :: _ -> failf ln "unknown expectation kind '%s'" kind
           | [] -> failf ln "'expect' needs a kind")
         | "expect_failure" | "broken" | "skip" ->
           let b = need ln kw in
           if b.b_flag <> None then
             failf ln "at most one of expect_failure/broken/skip per test";
           let r = reason_of_rest ln rest in
           b.b_flag <-
             Some
               (match kw with
               | "expect_failure" -> Expect_failure r
               | "broken" -> Broken r
               | _ -> Skip r)
         | "---" -> failf ln "'---' outside an inline scenario"
         | _ -> failf ln "unknown directive '%s'" kw
     done;
     close ()
   with Fail _ as e -> raise e);
  Ok (List.rev !tests)

let parse text =
  match parse text with
  | r -> r
  | exception Fail (ln, msg) -> Error (Printf.sprintf "line %d: %s" ln msg)

(* --- printing ------------------------------------------------------------ *)

let frac_to_string f =
  let num = Util.Frac.num f and den = Util.Frac.den f in
  if den = 1 then string_of_int num else Printf.sprintf "%d/%d" num den

let needs_quoting s =
  s = ""
  || s.[0] = '#'
  || String.exists
       (fun c -> is_space c || c = '"' || c = '\\' || Char.code c < 0x20)
       s

let render_token s =
  if not (needs_quoting s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* A reason prints raw when the raw form parses back to itself: nonempty, no
   control characters, not starting with a quote or space, not ending with a
   space (the parser trims). *)
let render_reason s =
  let raw_ok =
    s <> ""
    && s.[0] <> '"'
    && (not (is_space s.[0]))
    && (not (is_space s.[String.length s - 1]))
    && not (String.exists (fun c -> Char.code c < 0x20) s)
  in
  if raw_ok then s else render_token s

let print_test buf t =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "test %s" (render_token t.name);
  (match t.flag with
  | Some (Expect_failure r) -> line "expect_failure %s" (render_reason r)
  | Some (Broken r) -> line "broken %s" (render_reason r)
  | Some (Skip r) -> line "skip %s" (render_reason r)
  | None -> ());
  if t.solvers <> [] then
    line "solver %s" (render_token (String.concat "," t.solvers));
  (match t.seed with Some s -> line "seed %d" s | None -> ());
  (match t.weights with
  | Some (w1, w2, w3) -> line "weights %d %d %d" w1 w2 w3
  | None -> ());
  if t.cache then line "cache on";
  if t.core then line "core on";
  (match t.scenario with
  | File path -> line "scenario file %s" (render_token path)
  | Inline body ->
    line "scenario inline";
    line "---";
    List.iter (fun l -> line "%s" l) body;
    line "---");
  List.iter
    (fun e ->
      match e with
      | Objective f -> line "expect objective %s" (frac_to_string f)
      | Selected labels ->
        line "expect selected%s"
          (String.concat "" (List.map (fun l -> " " ^ render_token l) labels))
      | Value (f, labels) ->
        line "expect value %s%s" (frac_to_string f)
          (String.concat "" (List.map (fun l -> " " ^ render_token l) labels))
      | Counter (name, count) ->
        line "expect counter %s %d" (render_token name) count)
    t.expects

let print file =
  let buf = Buffer.create 1024 in
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf '\n';
      print_test buf t)
    file;
  Buffer.contents buf
