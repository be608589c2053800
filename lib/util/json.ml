type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_string f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite number";
  if Float.is_integer f && Float.abs f <= 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* shortest rendering that round-trips a float exactly *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write ~indent ~level buf v =
  let nl_sep k =
    (* pretty mode separates items with a newline and indents; compact mode
       writes nothing *)
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * k) ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_string f)
  | Str s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl_sep (level + 1);
        write ~indent ~level:(level + 1) buf item)
      items;
    nl_sep level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl_sep (level + 1);
        escape_string buf k;
        Buffer.add_char buf ':';
        if indent then Buffer.add_char buf ' ';
        write ~indent ~level:(level + 1) buf item)
      fields;
    nl_sep level;
    Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  write ~indent ~level:0 buf v;
  Buffer.contents buf

let to_string v = render ~indent:false v

let to_string_pretty v = render ~indent:true v

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of int * string

type error = {
  line : int;
  column : int;
  offset : int;
  message : string;
}

(* Positions are derived from the byte offset only when a parse actually
   fails, so the happy path never pays for line accounting. *)
let locate s offset =
  let offset = min offset (String.length s) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if s.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, offset - !bol + 1)

let error_at s offset message =
  let line, column = locate s offset in
  { line; column; offset; message }

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.column e.message

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', found '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', found end of input" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some c -> c
    | None -> fail (Printf.sprintf "bad \\u escape \\u%s" h)
  in
  let add_utf8 buf c =
    (* encode a basic-plane code point as UTF-8 *)
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20 in
    let rec loop () =
      (* a run of bytes that need no decoding is copied in one piece *)
      let start = !pos in
      while !pos < n && plain s.[!pos] do
        advance ()
      done;
      if !pos > start then Buffer.add_substring buf s start (!pos - start);
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let c = parse_hex4 () in
            if c >= 0xD800 && c <= 0xDFFF then fail "surrogate \\u escape"
            else add_utf8 buf c
          | c -> fail (Printf.sprintf "bad escape \\%c" c)));
        loop ()
      | Some _ -> fail "raw control character in string"
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> f
    | Some _ | None -> fail (Printf.sprintf "bad number '%s'" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (error_at s at msg)

let parse_line s =
  (* strip exactly one frame terminator; everything else must be one line *)
  let n = String.length s in
  let n = if n > 0 && s.[n - 1] = '\n' then n - 1 else n in
  let n = if n > 0 && s.[n - 1] = '\r' then n - 1 else n in
  let s = String.sub s 0 n in
  match String.index_opt s '\n' with
  | Some i -> Error (error_at s i "newline inside NDJSON frame")
  | None ->
    if String.for_all (function ' ' | '\t' | '\r' -> true | _ -> false) s then
      Error (error_at s 0 "blank NDJSON frame")
    else parse s

let of_string s =
  match parse s with
  | Ok v -> Ok v
  | Error e ->
    Error
      (Format.asprintf "JSON parse error at offset %d (%a)" e.offset pp_error e)

let load path =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | text -> (
    match of_string text with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg

(* --- accessors ----------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f
    when Float.is_integer f
         && f >= Int.to_float min_int
         (* [Int.to_float max_int] rounds up to 2{^62}, itself out of range *)
         && f < Int.to_float max_int -> Some (Float.to_int f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None
