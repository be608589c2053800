(* Wire types and codecs for the NDJSON-RPC service. Pure: no sockets, no
   clocks — parse_request/render_response are total functions on frames,
   which is what lets the tests exercise the protocol without a server. *)

module Json = Util.Json

type scenario = Inline of string | File of string | Case_seed of int

type solve_params = {
  scenario : scenario;
  solver : string;
  seed : int option;
  weights : Core.Problem.weights option;
  deadline_ms : float option;
  progress : bool;
}

type call = Ping | Stats | Solve of solve_params | Compose of solve_params | Shutdown

type request = { id : Json.t; call : call }

type error_kind =
  | Parse_error of { line : int; column : int }
  | Invalid_request
  | Unknown_method of string
  | Unknown_solver of string
  | Solver_failure of string
  | Bad_scenario
  | Unsupported_case
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Overflow
  | Internal

type response =
  | Result of { id : Json.t; body : Json.t }
  | Error of { id : Json.t; kind : error_kind; message : string }

let response_id = function Result { id; _ } -> id | Error { id; _ } -> id

let kind_label = function
  | Parse_error _ -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_method _ -> "unknown_method"
  | Unknown_solver _ -> "unknown_solver"
  | Solver_failure _ -> "solver_error"
  | Bad_scenario -> "bad_scenario"
  | Unsupported_case -> "unsupported_case"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Overflow -> "overflow"
  | Internal -> "internal"

(* --- decoding ----------------------------------------------------------- *)

let err ?(id = Json.Null) kind message = Error { id; kind; message }

(* A decoder that threads the request id (once recovered) into every
   subsequent error, so a malformed solve call still correlates. *)
exception Reject of response

let reject ?id kind message = raise (Reject (err ?id kind message))

let known_fields ?id ~where allowed = function
  | Json.Obj members ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k allowed) then
          reject ?id Invalid_request
            (Printf.sprintf "unknown %s field %S" where k))
      members
  | _ -> reject ?id Invalid_request (Printf.sprintf "%s must be an object" where)

let field_int ?id ~where name j =
  Option.map
    (fun v ->
      match Json.to_int v with
      | Some i -> i
      | None -> reject ?id Invalid_request (Printf.sprintf "%s.%s must be an integer" where name))
    (Json.member name j)

let field_str ?id ~where name j =
  Option.map
    (fun v ->
      match Json.to_str v with
      | Some s -> s
      | None -> reject ?id Invalid_request (Printf.sprintf "%s.%s must be a string" where name))
    (Json.member name j)

let decode_weights ~id j =
  match Json.to_list j with
  | Some [ a; b; c ] -> (
    let too_large = function
      | Json.Num f -> Float.is_integer f && f >= Int.to_float max_int
      | _ -> false
    in
    match (Json.to_int a, Json.to_int b, Json.to_int c) with
    | Some w1, Some w2, Some w3 when w1 > 0 && w2 > 0 && w3 > 0 ->
      { Core.Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
    | _ when List.exists too_large [ a; b; c ] ->
      reject ~id Overflow "params.weights overflow native integers"
    | _ ->
      reject ~id Invalid_request "params.weights must be three positive integers")
  | _ -> reject ~id Invalid_request "params.weights must be [w1, w2, w3]"

(* Shared by [solve] and [compose]: both take the same params object (a
   scenario plus solver/seed/weights); they differ only in what the engine
   does with the resolved hops. *)
let decode_solve_params ~id params =
  let where = "params" in
  known_fields ~id ~where
    [ "scenario"; "file"; "case_seed"; "solver"; "seed"; "weights";
      "deadline_ms"; "progress" ]
    params;
  let scenario =
    match
      ( field_str ~id ~where "scenario" params,
        field_str ~id ~where "file" params,
        field_int ~id ~where "case_seed" params )
    with
    | Some text, None, None -> Inline text
    | None, Some path, None -> File path
    | None, None, Some seed -> Case_seed seed
    | None, None, None ->
      reject ~id Invalid_request
        "params needs a scenario: one of \"scenario\", \"file\", \"case_seed\""
    | _ ->
      reject ~id Invalid_request
        "params has more than one of \"scenario\", \"file\", \"case_seed\""
  in
  let solver =
    match field_str ~id ~where "solver" params with
    | Some s -> String.lowercase_ascii s
    | None -> reject ~id Invalid_request "params.solver is required"
  in
  let deadline_ms =
    Option.map
      (fun v ->
        match Json.to_float v with
        | Some f when Float.is_finite f && f > 0. -> f
        | _ ->
          reject ~id Invalid_request "params.deadline_ms must be a positive number")
      (Json.member "deadline_ms" params)
  in
  let progress =
    match Json.member "progress" params with
    | None -> false
    | Some v -> (
      match Json.to_bool v with
      | Some b -> b
      | None -> reject ~id Invalid_request "params.progress must be a boolean")
  in
  {
    scenario;
    solver;
    seed = field_int ~id ~where "seed" params;
    weights = Option.map (decode_weights ~id) (Json.member "weights" params);
    deadline_ms;
    progress;
  }

let decode_request j =
  known_fields ~where:"request" [ "id"; "method"; "params" ] j;
  let id =
    match Json.member "id" j with
    | Some (Json.Str _ as id) | Some (Json.Num _ as id) -> id
    | Some _ -> reject Invalid_request "id must be a string or a number"
    | None -> reject Invalid_request "id is required"
  in
  let meth =
    match field_str ~id ~where:"request" "method" j with
    | Some m -> m
    | None -> reject ~id Invalid_request "method is required"
  in
  let params = Json.member "params" j in
  let no_params () =
    match params with
    | None | Some (Json.Obj []) -> ()
    | Some _ ->
      reject ~id Invalid_request (Printf.sprintf "%s takes no params" meth)
  in
  let call =
    match meth with
    | "ping" -> no_params (); Ping
    | "stats" -> no_params (); Stats
    | "shutdown" -> no_params (); Shutdown
    | "solve" -> (
      match params with
      | Some p -> Solve (decode_solve_params ~id p)
      | None -> reject ~id Invalid_request "solve requires params")
    | "compose" -> (
      match params with
      | Some p -> Compose (decode_solve_params ~id p)
      | None -> reject ~id Invalid_request "compose requires params")
    | other -> reject ~id (Unknown_method other) (Printf.sprintf "unknown method %S" other)
  in
  { id; call }

let parse_request frame =
  match Json.parse_line frame with
  | Error e ->
    Result.Error
      (err (Parse_error { line = e.Json.line; column = e.Json.column })
         (Format.asprintf "%a" Json.pp_error e))
  | Ok j -> ( try Ok (decode_request j) with Reject resp -> Result.Error resp)

(* --- encoding ----------------------------------------------------------- *)

let render_response = function
  | Result { id; body } -> Json.to_string (Json.Obj [ ("id", id); ("result", body) ])
  | Error { id; kind; message } ->
    let position =
      match kind with
      | Parse_error { line; column } ->
        [ ("line", Json.Num (float_of_int line));
          ("column", Json.Num (float_of_int column)) ]
      | _ -> []
    in
    Json.to_string
      (Json.Obj
         [
           ("id", id);
           ( "error",
             Json.Obj
               ([ ("kind", Json.Str (kind_label kind)); ("message", Json.Str message) ]
               @ position) );
         ])

let render_progress ~id ~event ?name ?dur_ns () =
  let fields =
    [ ("event", Json.Str event) ]
    @ (match name with None -> [] | Some n -> [ ("name", Json.Str n) ])
    @
    match dur_ns with
    | None -> []
    | Some d -> [ ("dur_ns", Json.Num (Int64.to_float d)) ]
  in
  Json.to_string (Json.Obj [ ("id", id); ("progress", Json.Obj fields) ])
