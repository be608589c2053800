(* Util.Json parse-error positions and NDJSON framing.

   The server satellite of the JSON layer: every rejected input must name
   the line and column where parsing stopped (property-tested over random
   mutations of valid documents and over raw garbage), and parse_line
   must enforce one-frame-per-line framing. *)

module Json = Util.Json

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

let check_positioned input =
  match Json.parse input with
  | Ok _ -> true
  | Error e ->
    (* positions are 1-based and inside the input (column may point one
       past the end for truncation errors) *)
    let lines = String.split_on_char '\n' input in
    e.Json.line >= 1
    && e.Json.line <= List.length lines
    && e.Json.column >= 1
    && e.Json.column <= String.length (List.nth lines (e.Json.line - 1)) + 1
    && e.Json.offset >= 0
    && e.Json.offset <= String.length input
    && e.Json.message <> ""

(* random garbage: anything goes, the parser must still position errors *)
let prop_garbage =
  QCheck.Test.make ~name:"rejected garbage names a position" ~count:1000
    QCheck.(string_of_size Gen.(0 -- 40))
    check_positioned

(* mutations of a valid document: flip one byte, positions must hold *)
let base_doc =
  {|{"kernels": [{"name": "flip", "ns": 12.5}], "ok": true, "n": null,
 "nested": {"a": [1, 2, 3], "b": "x\ny"}}|}

let prop_mutated =
  QCheck.Test.make ~name:"rejected mutations name a position" ~count:1000
    QCheck.(pair (int_bound (String.length base_doc - 1)) char)
    (fun (pos, c) ->
      let b = Bytes.of_string base_doc in
      Bytes.set b pos c;
      check_positioned (Bytes.to_string b))

let test_position_values () =
  (match Json.parse "{\n  \"a\": 1,\n  \"b\": nul\n}" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
    Alcotest.(check int) "line of the bad literal" 3 e.Json.line;
    Alcotest.(check int) "column of the bad literal" 8 e.Json.column);
  match Json.parse "[1, 2" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> Alcotest.(check int) "truncation is on line 1" 1 e.Json.line

let test_pp_error_mentions_position () =
  match Json.parse "???" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
    let rendered = Format.asprintf "%a" Json.pp_error e in
    Alcotest.(check bool) "pp_error names line and column" true
      (contains ~affix:"line 1" rendered && contains ~affix:"column 1" rendered)

(* --- strings ------------------------------------------------------------ *)

(* A string decodes by runs of plain bytes between escapes; each input's
   value, or its error message and offset, is pinned. *)
let test_string_decoding () =
  let cases =
    [
      ({|"plain"|}, Ok "plain");
      ({|""|}, Ok "");
      ({|"a\"b\\c\/d"|}, Ok {|a"b\c/d|});
      ({|"\n\r\t\b\fx"|}, Ok "\n\r\t\b\012x");
      ({|"caf\u00e9 \u20ac"|}, Ok "caf\xc3\xa9 \xe2\x82\xac");
      ("\"tab\there\"", Error ("raw control character in string", 4));
      ({|"abc|}, Error ("unterminated string", 4));
      ({|"ab\|}, Error ("unterminated escape", 4));
      ({|"a\qb"|}, Error ("bad escape \\q", 4));
      ({|"ab\u12"|}, Error ("truncated \\u escape", 5));
      ({|"\ud800"|}, Error ("surrogate \\u escape", 7));
    ]
  in
  List.iter
    (fun (input, expected) ->
      let got =
        match Json.parse input with
        | Ok (Json.Str s) -> Ok s
        | Ok _ -> Alcotest.failf "%S: not a string" input
        | Error e -> Error (e.Json.message, e.Json.offset)
      in
      Alcotest.(check (result string (pair string int))) input expected got)
    cases

let prop_string_roundtrip =
  QCheck.Test.make ~name:"any string survives to_string and parse" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

(* --- NDJSON framing ------------------------------------------------------ *)

let test_parse_line_accepts_trailing_newline () =
  (match Json.parse_line "{\"a\": 1}\n" with
  | Ok j -> Alcotest.(check bool) "value" true (j = Json.Obj [ ("a", Json.Num 1.) ])
  | Error e -> Alcotest.failf "rejected: %a" Json.pp_error e);
  match Json.parse_line "{\"a\": 1}\r\n" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "CRLF rejected: %a" Json.pp_error e

let test_parse_line_rejects_embedded_newline () =
  match Json.parse_line "{\"a\":\n 1}" with
  | Ok _ -> Alcotest.fail "embedded newline must be rejected"
  | Error e ->
    Alcotest.(check bool) "message names the framing rule" true
      (contains ~affix:"NDJSON" e.Json.message)

let test_parse_line_rejects_blank () =
  (match Json.parse_line "" with
  | Ok _ -> Alcotest.fail "empty frame must be rejected"
  | Error _ -> ());
  match Json.parse_line "   \n" with
  | Ok _ -> Alcotest.fail "blank frame must be rejected"
  | Error _ -> ()

let prop_parse_line_agrees_with_parse =
  (* on newline-free inputs, framing must not change the verdict *)
  QCheck.Test.make ~name:"parse_line = parse on newline-free input" ~count:500
    QCheck.(string_of_size Gen.(1 -- 30))
    (fun s ->
      let s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s in
      if String.trim s = "" then true
      else
        match (Json.parse s, Json.parse_line (s ^ "\n")) with
        | Ok a, Ok b -> a = b
        | Error _, Error _ -> true
        | _ -> false)

(* max_int is 2^62 - 1, which no float holds: the nearest is 2^62, and
   converting that wraps to min_int *)
let test_to_int_range () =
  let to_int f = Json.to_int (Json.Num f) in
  Alcotest.(check (option int)) "2^62" None (to_int (Float.ldexp 1. 62));
  Alcotest.(check (option int)) "-2^62" (Some min_int) (to_int (Float.ldexp (-1.) 62));
  Alcotest.(check (option int)) "largest float below 2^62"
    (Some (max_int - 511)) (to_int (Float.pred (Float.ldexp 1. 62)))

let () =
  Alcotest.run "json"
    [
      ( "positions",
        [
          QCheck_alcotest.to_alcotest prop_garbage;
          QCheck_alcotest.to_alcotest prop_mutated;
          Alcotest.test_case "exact line/column values" `Quick
            test_position_values;
          Alcotest.test_case "pp_error mentions the position" `Quick
            test_pp_error_mentions_position;
        ] );
      ( "strings",
        [
          Alcotest.test_case "values, errors and offsets" `Quick
            test_string_decoding;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
        ] );
      ( "framing",
        [
          Alcotest.test_case "trailing newline accepted" `Quick
            test_parse_line_accepts_trailing_newline;
          Alcotest.test_case "embedded newline rejected" `Quick
            test_parse_line_rejects_embedded_newline;
          Alcotest.test_case "blank frames rejected" `Quick
            test_parse_line_rejects_blank;
          QCheck_alcotest.to_alcotest prop_parse_line_agrees_with_parse;
        ] );
      ("accessors", [ Alcotest.test_case "to_int range" `Quick test_to_int_range ]);
    ]
