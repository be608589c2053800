(* The mapping-selection service (lib/server).

   Exercises each layer without a process boundary: protocol codecs,
   admission-queue shedding, engine determinism, digest coalescing on the
   cache's single-flight selection tier (jobs 1 and 4 must both report
   exactly one solver invocation for N identical requests), Cache.sync
   repair, deadline enforcement, and one in-process socket round trip
   against the real event loop. *)

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

let solve_params frame =
  match (parse_ok frame).Protocol.call with
  | Protocol.Solve p -> p
  | _ -> Alcotest.fail "expected solve"

let test_solve_key () =
  let a = Protocol.solve_key (solve_params (solve_frame ~id:"r1" 42)) in
  let b = Protocol.solve_key (solve_params (solve_frame ~id:"r2" 42)) in
  let c = Protocol.solve_key (solve_params (solve_frame ~id:"r1" 43)) in
  let d = Protocol.solve_key (solve_params (solve_frame ~id:"r1" ~solver:"local" 42)) in
  Alcotest.(check string) "id does not enter the key" a b;
  Alcotest.(check bool) "scenario enters the key" true (a <> c);
  Alcotest.(check bool) "solver enters the key" true (a <> d)

(* --- batcher ------------------------------------------------------------- *)

let test_batcher_sheds_and_preserves_order () =
  let b = Server.Batcher.create ~capacity:3 in
  Alcotest.(check bool) "1" true (Server.Batcher.try_add b 1);
  Alcotest.(check bool) "2" true (Server.Batcher.try_add b 2);
  Alcotest.(check bool) "3" true (Server.Batcher.try_add b 3);
  Alcotest.(check bool) "full queue sheds" false (Server.Batcher.try_add b 4);
  Alcotest.(check (list int)) "fifo drain" [ 1; 2 ] (Server.Batcher.drain ~max:2 b);
  Alcotest.(check bool) "slot freed" true (Server.Batcher.try_add b 5);
  Alcotest.(check (list int)) "rest" [ 3; 5 ] (Server.Batcher.drain ~max:10 b);
  Alcotest.(check (list int)) "empty" [] (Server.Batcher.drain ~max:1 b)

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
          Server.Scheduler.key = Protocol.solve_key (solve_params frame);
          request = req;
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
      Server.Scheduler.key = Protocol.solve_key (solve_params frame);
      request = parse_ok frame;
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

(* --- Cache.sync ---------------------------------------------------------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let test_cache_sync_repairs_disk_tier () =
  let dir = temp_dir "serve_sync" in
  let cache = Cache.create ~dir () in
  let engine = Server.Engine.create ~cache () in
  (match Server.Engine.handle engine (parse_ok (solve_frame mapping_seed)) with
  | Protocol.Result _ -> ()
  | Protocol.Error { message; _ } -> Alcotest.failf "solve failed: %s" message);
  let files () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cache")
  in
  let before = files () in
  Alcotest.(check bool) "entries persisted" true (List.length before > 0);
  (* lose the files behind the cache's back, as a crashed writer would *)
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) before;
  Alcotest.(check (list string)) "gone" [] (files ());
  Cache.sync cache;
  Alcotest.(check (list string)) "sync restores every completed entry"
    (List.sort compare before)
    (List.sort compare (files ()))

(* --- end to end over a real socket --------------------------------------- *)

let test_socket_round_trip () =
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
            jobs = 2;
            queue = 32;
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
  output_string oc {|{"id":"p","method":"ping"}|};
  output_string oc "\n";
  output_string oc (solve_frame ~id:"s1" mapping_seed);
  output_string oc "\n";
  output_string oc (solve_frame ~id:"s2" mapping_seed);
  output_string oc "\n";
  flush oc;
  let lines = List.init 3 (fun _ -> input_line ic) in
  let by_id id =
    match
      List.find_opt
        (fun l ->
          match Json.parse_line l with
          | Ok j -> Json.member "id" j = Some (Json.Str id)
          | Error _ -> false)
        lines
    with
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
    (body (by_id "s2"));
  Atomic.set stop true;
  Domain.join daemon;
  Unix.close fd;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists path)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parses ping" `Quick test_parse_ping;
          Alcotest.test_case "parses solve" `Quick test_parse_solve;
          Alcotest.test_case "typed rejections" `Quick test_parse_rejections;
          Alcotest.test_case "errors echo the id" `Quick test_error_id_echo;
          Alcotest.test_case "solve_key is content-keyed" `Quick test_solve_key;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "sheds at capacity, drains FIFO" `Quick
            test_batcher_sheds_and_preserves_order;
        ] );
      ( "engine",
        [
          Alcotest.test_case "bit-identical responses" `Quick
            test_engine_deterministic;
          Alcotest.test_case "typed errors" `Quick test_engine_typed_errors;
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
      ( "sync",
        [
          Alcotest.test_case "Cache.sync repairs lost disk files" `Quick
            test_cache_sync_repairs_disk_tier;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket round trip and graceful stop" `Quick
            test_socket_round_trip;
        ] );
    ]
