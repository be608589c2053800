(* The mapping-selection service (lib/server).

   Exercises each layer without a process boundary: protocol codecs,
   engine determinism, digest coalescing on the cache's single-flight
   selection tier (jobs 1 and 4 must both report exactly one solver
   invocation for N identical requests), deadline enforcement, and
   in-process socket sessions against the real event loop: a round trip,
   admission-queue shedding and span-sourced progress routing. *)

module Protocol = Server.Protocol
module Json = Util.Json

(* a generator seed whose case is a mapping scenario (not SET COVER) *)
let mapping_seed =
  let rec find s =
    match (Fuzz.Gen.case ~seed:s).Fuzz.Case.payload with
    | Fuzz.Case.Mapping _ -> s
    | Fuzz.Case.Setcover _ | Fuzz.Case.Multihop _ -> find (s + 1)
  in
  find 7

let setcover_seed =
  let rec find s =
    match (Fuzz.Gen.case ~seed:s).Fuzz.Case.payload with
    | Fuzz.Case.Setcover _ -> s
    | Fuzz.Case.Mapping _ | Fuzz.Case.Multihop _ -> find (s + 1)
  in
  find 0

let solve_frame ?(id = "x") ?(solver = "greedy") ?(seed = 0) case_seed =
  Printf.sprintf
    {|{"id":%S,"method":"solve","params":{"case_seed":%d,"solver":%S,"seed":%d}}|}
    id case_seed solver seed

let parse_ok frame =
  match Protocol.parse_request frame with
  | Ok req -> req
  | Error resp ->
    Alcotest.failf "frame rejected: %s" (Protocol.render_response resp)

(* --- protocol ------------------------------------------------------------ *)

let test_parse_ping () =
  let req = parse_ok {|{"id": "a", "method": "ping"}|} in
  Alcotest.(check bool) "id echoed" true (req.Protocol.id = Json.Str "a");
  Alcotest.(check bool) "call" true (req.Protocol.call = Protocol.Ping)

let test_parse_solve () =
  let req = parse_ok (solve_frame ~id:"r1" ~seed:9 42) in
  match req.Protocol.call with
  | Protocol.Solve p ->
    Alcotest.(check bool) "scenario" true (p.Protocol.scenario = Protocol.Case_seed 42);
    Alcotest.(check string) "solver" "greedy" p.Protocol.solver;
    Alcotest.(check (option int)) "seed" (Some 9) p.Protocol.seed;
    Alcotest.(check bool) "no deadline" true (p.Protocol.deadline_ms = None)
  | _ -> Alcotest.fail "expected a solve call"

let error_kind frame =
  match Protocol.parse_request frame with
  | Ok _ -> Alcotest.failf "frame accepted: %s" frame
  | Error (Protocol.Error { kind; _ }) -> kind
  | Error (Protocol.Result _) -> Alcotest.fail "error expected"

let test_parse_rejections () =
  (match error_kind "no json" with
  | Protocol.Parse_error { line; column } ->
    Alcotest.(check int) "line" 1 line;
    Alcotest.(check bool) "column positioned" true (column >= 1)
  | _ -> Alcotest.fail "expected parse_error");
  Alcotest.(check string) "unknown method" "unknown_method"
    (Protocol.kind_label (error_kind {|{"id":"a","method":"nope"}|}));
  (* a typo'd field must be rejected, not silently ignored *)
  Alcotest.(check string) "unknown params field" "invalid_request"
    (Protocol.kind_label
       (error_kind
          {|{"id":"a","method":"solve","params":{"case_seed":1,"solver":"greedy","seeed":1}}|}));
  Alcotest.(check string) "two scenarios" "invalid_request"
    (Protocol.kind_label
       (error_kind
          {|{"id":"a","method":"solve","params":{"case_seed":1,"file":"x","solver":"greedy"}}|}));
  Alcotest.(check string) "missing id" "invalid_request"
    (Protocol.kind_label (error_kind {|{"method":"ping"}|}))

let test_error_id_echo () =
  match Protocol.parse_request {|{"id":"r9","method":"nope"}|} with
  | Error resp ->
    Alcotest.(check bool) "id echoed into the error" true
      (Protocol.response_id resp = Json.Str "r9")
  | Ok _ -> Alcotest.fail "expected rejection"

(* --- engine -------------------------------------------------------------- *)

let body_string resp = Protocol.render_response resp

let test_engine_deterministic () =
  let engine = Server.Engine.create () in
  let req = parse_ok (solve_frame mapping_seed) in
  let a = body_string (Server.Engine.handle engine req) in
  let b = body_string (Server.Engine.handle engine req) in
  Alcotest.(check string) "same request, same bytes (warm vs cold)" a b;
  (* and a fresh engine (cold cache) produces the same bytes again *)
  let c = body_string (Server.Engine.handle (Server.Engine.create ()) req) in
  Alcotest.(check string) "cache state invisible in bytes" a c

let test_engine_typed_errors () =
  let engine = Server.Engine.create () in
  let kind frame =
    match Server.Engine.handle engine (parse_ok frame) with
    | Protocol.Error { kind; _ } -> Protocol.kind_label kind
    | Protocol.Result _ -> Alcotest.fail "expected a typed error"
  in
  Alcotest.(check string) "unknown solver" "unknown_solver"
    (kind (solve_frame ~solver:"simplex" mapping_seed));
  Alcotest.(check string) "set cover unsupported" "unsupported_case"
    (kind (solve_frame setcover_seed));
  Alcotest.(check string) "missing file" "bad_scenario"
    (kind
       {|{"id":"a","method":"solve","params":{"file":"/nonexistent.doc","solver":"greedy"}}|});
  let s = Server.Engine.stats engine in
  Alcotest.(check int) "errors counted" 3 s.Server.Engine.errors;
  Alcotest.(check int) "no solver ran" 0 s.Server.Engine.solves

(* A weight past native integers, or one whose exact objective is, gets the
   typed [overflow] kind rather than [internal] with an exception string.
   JSON numbers are floats: max_int arrives as 2^62, one past it, while
   2^62 - 512 decodes and overflows the appendix's unexplained term. *)
let test_engine_overflow () =
  let engine = Server.Engine.create () in
  let appendix =
    Serialize.Document.to_string (Option.get (Scenarios.Zoo.find "appendix")).Scenarios.Zoo.doc
  in
  let answer w1 =
    let frame =
      Printf.sprintf
        {|{"id":"w","method":"solve","params":{"scenario":%s,"solver":"greedy","weights":[%s,1,1]}}|}
        (Json.to_string (Json.Str appendix)) w1
    in
    let resp =
      match Protocol.parse_request frame with
      | Ok req -> Server.Engine.handle engine req
      | Error resp -> resp
    in
    match resp with
    | Protocol.Error { kind; _ } -> Protocol.kind_label kind
    | Protocol.Result _ -> "result"
  in
  Alcotest.(check string) "max_int weight" "overflow" (answer "4611686018427387903");
  Alcotest.(check string) "overflowing objective" "overflow"
    (answer "4611686018427387392");
  Alcotest.(check string) "unit weights solve" "result" (answer "1")

(* --- coalescing ---------------------------------------------------------- *)

let run_identical ~jobs ~n =
  let engine = Server.Engine.create () in
  let frames = List.init n (fun i -> solve_frame ~id:(Printf.sprintf "r%d" i) mapping_seed) in
  let out = ref [] in
  let lock = Mutex.create () in
  let jobs_list =
    List.map
      (fun frame ->
        let req = parse_ok frame in
        {
          Server.Scheduler.request = req;
          send =
            (fun line ->
              Mutex.lock lock;
              out := line :: !out;
              Mutex.unlock lock);
          deadline_at_ns = None;
        })
      frames
  in
  Parallel.Pool.with_pool ~jobs (fun pool ->
      Server.Scheduler.run_batch engine ~pool jobs_list);
  (engine, List.rev !out)

let check_coalesced ~jobs () =
  let n = 8 in
  let engine, responses = run_identical ~jobs ~n in
  Alcotest.(check int) "every request answered" n (List.length responses);
  let bodies =
    List.map
      (fun line ->
        match Json.parse_line line with
        | Ok j -> Json.to_string (Option.get (Json.member "result" j))
        | Error _ -> Alcotest.failf "bad frame %s" line)
      responses
  in
  List.iter
    (fun b -> Alcotest.(check string) "identical bodies" (List.hd bodies) b)
    bodies;
  let s = Server.Engine.stats engine in
  Alcotest.(check int) "exactly one solver invocation" 1 s.Server.Engine.solves;
  Alcotest.(check int) "the rest coalesced" (n - 1) s.Server.Engine.coalesced

let test_coalescing_jobs1 () = check_coalesced ~jobs:1 ()

let test_coalescing_jobs4 () = check_coalesced ~jobs:4 ()

(* the cache tier underneath: n racing lookups of one key = one compute,
   one miss, n-1 hits — the jobs-invariant accounting contract *)
let test_selection_single_flight () =
  let cache = Cache.create () in
  let n = 4 in
  let runs = Atomic.make 0 in
  let gate = Atomic.make 0 in
  let worker () =
    Atomic.incr gate;
    while Atomic.get gate < n do
      Domain.cpu_relax ()
    done;
    Cache.selection cache ~solver:"test" ~seed:None ~problem_key:"k"
      (fun () ->
        Atomic.incr runs;
        Unix.sleepf 0.02;
        [| true; false |])
  in
  let domains = List.init n (fun _ -> Domain.spawn worker) in
  let results = List.map Domain.join domains in
  List.iter
    (fun r ->
      Alcotest.(check bool) "same selection" true (r = [| true; false |]))
    results;
  Alcotest.(check int) "compute ran once" 1 (Atomic.get runs);
  let s = Cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "rest are hits" (n - 1) s.Cache.hits

(* --- deadlines ----------------------------------------------------------- *)

let test_deadline_expired_jobs_not_solved () =
  let engine = Server.Engine.create () in
  let frame = solve_frame mapping_seed in
  let out = ref [] in
  let job deadline =
    {
      Server.Scheduler.request = parse_ok frame;
      send = (fun line -> out := line :: !out);
      deadline_at_ns = deadline;
    }
  in
  let past = Int64.sub (Util.Timer.now_ns ()) 1_000_000L in
  Parallel.Pool.with_pool ~jobs:1 (fun pool ->
      Server.Scheduler.run_batch engine ~pool [ job (Some past); job None ]);
  Alcotest.(check int) "both answered" 2 (List.length !out);
  let kinds =
    List.filter_map
      (fun line ->
        Option.bind (Result.to_option (Json.parse_line line)) (fun j ->
            Option.bind (Json.member "error" j) (fun e ->
                Option.bind (Json.member "kind" e) Json.to_str)))
      !out
  in
  Alcotest.(check (list string)) "expired one got the typed error"
    [ "deadline_exceeded" ] kinds;
  Alcotest.(check int) "live one solved" 1
    (Server.Engine.stats engine).Server.Engine.solves

(* --- end to end over a real socket --------------------------------------- *)

(* Runs [session] against a live daemon on a fresh Unix socket, with a
   connected client's channels, then stops the daemon gracefully. *)
let with_daemon ?(jobs = 2) ?(queue = 32) session =
  let path = Filename.temp_file "serve_e2e" ".sock" in
  Sys.remove path;
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~stop
          ~on_ready:(fun _ -> Atomic.set ready true)
          {
            Server.Daemon.endpoint = `Unix_socket path;
            jobs;
            queue;
            deadline_ms = None;
          })
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join daemon;
      Unix.close fd)
    (fun () -> session oc ic);
  path

(* Sends [frames] in one write. *)
let send_frames oc frames =
  output_string oc (String.concat "" (List.map (fun f -> f ^ "\n") frames));
  flush oc

let frame_id l =
  match Json.parse_line l with
  | Ok j -> Json.member "id" j
  | Error _ -> Alcotest.failf "bad frame %s" l

(* Reads frames until each of [ids] has its response (a frame without a
   [progress] member); returns every frame read, in arrival order. *)
let read_until_answered ic ids =
  let is_response l =
    match Json.parse_line l with
    | Ok j -> Json.member "progress" j = None
    | Error _ -> Alcotest.failf "bad frame %s" l
  in
  let rec loop pending acc =
    if pending = [] then List.rev acc
    else
      let l = input_line ic in
      let pending =
        if is_response l then
          List.filter (fun id -> Some (Json.Str id) <> frame_id l) pending
        else pending
      in
      loop pending (l :: acc)
  in
  loop ids []

let test_socket_round_trip () =
  let path =
    with_daemon (fun oc ic ->
        send_frames oc
          [
            {|{"id":"p","method":"ping"}|};
            solve_frame ~id:"s1" mapping_seed;
            solve_frame ~id:"s2" mapping_seed;
          ];
        let lines = List.init 3 (fun _ -> input_line ic) in
        let by_id id =
          match List.find_opt (fun l -> frame_id l = Some (Json.Str id)) lines with
          | Some l -> l
          | None -> Alcotest.failf "no response for %s" id
        in
        Alcotest.(check string) "pong" {|{"id":"p","result":{"pong":true}}|} (by_id "p");
        let body l =
          match Json.parse_line l with
          | Ok j -> Json.to_string (Option.get (Json.member "result" j))
          | Error _ -> Alcotest.failf "bad frame %s" l
        in
        Alcotest.(check string) "identical duplicate bodies" (body (by_id "s1"))
          (body (by_id "s2")))
  in
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists path)

let error_label l =
  match Json.parse_line l with
  | Ok j ->
    Option.bind (Json.member "error" j) (fun e ->
        Option.bind (Json.member "kind" e) Json.to_str)
  | Error _ -> Alcotest.failf "bad frame %s" l

let test_shedding () =
  (* three frames in one write are admitted in one read, before any batch
     runs: a two-slot queue takes the first two and sheds the third *)
  ignore
    (with_daemon ~queue:2 (fun oc ic ->
         send_frames oc
           (List.map
              (fun id -> solve_frame ~id mapping_seed)
              [ "q1"; "q2"; "q3" ]);
         let lines = read_until_answered ic [ "q1"; "q2"; "q3" ] in
         let answer id =
           List.find (fun l -> frame_id l = Some (Json.Str id)) lines
         in
         Alcotest.(check (option string)) "third is shed" (Some "overloaded")
           (error_label (answer "q3"));
         List.iter
           (fun id ->
             Alcotest.(check (option string)) (id ^ " answered") None
               (error_label (answer id)))
           [ "q1"; "q2" ]))

let test_progress_routing () =
  (* span closes reach the request that asked for progress, on whichever
     domain runs it, and no other request *)
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was_enabled) @@ fun () ->
  ignore
    (with_daemon (fun oc ic ->
         let watched =
           Printf.sprintf
             {|{"id":"w","method":"solve","params":{"case_seed":%d,"solver":"greedy","progress":true}}|}
             mapping_seed
         in
         send_frames oc [ watched; solve_frame ~id:"u" ~solver:"local" mapping_seed ];
         let lines = read_until_answered ic [ "w"; "u" ] in
         let frames id =
           List.filter_map
             (fun l ->
               match Json.parse_line l with
               | Ok j when Json.member "id" j = Some (Json.Str id) -> Some j
               | Ok _ -> None
               | Error _ -> Alcotest.failf "bad frame %s" l)
             lines
         in
         let rec before_response = function
           | j :: rest when Json.member "progress" j <> None -> j :: before_response rest
           | _ -> []
         in
         let span j =
           Option.bind (Json.member "progress" j) (Json.member "event")
           = Some (Json.Str "span")
         in
         Alcotest.(check bool) "span frames before the watched response" true
           (List.exists span (before_response (frames "w")));
         Alcotest.(check int) "the other request gets its response only" 1
           (List.length (frames "u"))))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parses ping" `Quick test_parse_ping;
          Alcotest.test_case "parses solve" `Quick test_parse_solve;
          Alcotest.test_case "typed rejections" `Quick test_parse_rejections;
          Alcotest.test_case "errors echo the id" `Quick test_error_id_echo;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bit-identical responses" `Quick
            test_engine_deterministic;
          Alcotest.test_case "typed errors" `Quick test_engine_typed_errors;
          Alcotest.test_case "overflowing weights" `Quick test_engine_overflow;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "identical batch, jobs 1" `Quick
            test_coalescing_jobs1;
          Alcotest.test_case "identical batch, jobs 4" `Quick
            test_coalescing_jobs4;
          Alcotest.test_case "cache single-flight accounting" `Quick
            test_selection_single_flight;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "expired jobs answered without solving" `Quick
            test_deadline_expired_jobs_not_solved;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket round trip and graceful stop" `Quick
            test_socket_round_trip;
          Alcotest.test_case "a full queue sheds with overloaded" `Quick
            test_shedding;
          Alcotest.test_case "span progress reaches only its request" `Quick
            test_progress_routing;
        ] );
    ]
