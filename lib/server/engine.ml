(* The request handler over one warm cache.

   Thread-safety: [handle] runs concurrently on pool workers. The cache is
   internally synchronised, the counters are atomics, and everything else
   here is per-call immutable data — so the engine needs no lock of its
   own. *)

module Json = Util.Json

type t = {
  cache : Cache.t;
  handled : int Atomic.t;
  solves : int Atomic.t;
  ok : int Atomic.t;
  errors : int Atomic.t;
}

type stats = { handled : int; solves : int; coalesced : int; errors : int }

let create ?cache () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  {
    cache;
    handled = Atomic.make 0;
    solves = Atomic.make 0;
    ok = Atomic.make 0;
    errors = Atomic.make 0;
  }

let stats (t : t) : stats =
  {
    handled = Atomic.get t.handled;
    solves = Atomic.get t.solves;
    coalesced = Stdlib.max 0 (Atomic.get t.ok - Atomic.get t.solves);
    errors = Atomic.get t.errors;
  }

let stats_body t ~extra =
  let s = stats t in
  let c = Cache.stats t.cache in
  Json.Obj
    ([
       ("requests", Json.Num (float_of_int s.handled));
       ("solves", Json.Num (float_of_int s.solves));
       ("coalesced", Json.Num (float_of_int s.coalesced));
       ("errors", Json.Num (float_of_int s.errors));
       ( "cache",
         Json.Obj
           [
             ("hits", Json.Num (float_of_int c.Cache.hits));
             ("misses", Json.Num (float_of_int c.Cache.misses));
             ("evictions", Json.Num (float_of_int c.Cache.evictions));
             ("capacity", Json.Num (float_of_int (Cache.capacity t.cache)));
           ] );
     ]
    @ extra)

(* --- scenario resolution ------------------------------------------------ *)

exception Fail of Protocol.error_kind * string

let fail kind fmt = Printf.ksprintf (fun m -> raise (Fail (kind, m))) fmt

(* A scenario reference becomes its end-to-end selection problem through
   Fuzz.Corpus and Fuzz.Case, as in every other front end. Also returns the
   hop count [compose] reports: 1 unless the scenario is a chain, so
   [compose] is total over every scenario kind. *)
let resolve scenario =
  let what, payload =
    match scenario with
    | Protocol.Inline text -> (
      match Fuzz.Corpus.scenario_of_string text with
      | Ok payload -> ("inline scenario", payload)
      | Error msg -> fail Protocol.Bad_scenario "scenario: %s" msg)
    | Protocol.File path -> (
      match Fuzz.Corpus.load_scenario path with
      | Ok payload -> (path, payload)
      | Error msg -> fail Protocol.Bad_scenario "%s" msg)
    | Protocol.Case_seed seed ->
      let case = Fuzz.Gen.case ~seed in
      ( Printf.sprintf "case_seed %d (tag %s)" seed case.Fuzz.Case.tag,
        case.Fuzz.Case.payload )
  in
  let hops =
    match payload with
    | Fuzz.Case.Multihop mh -> List.length mh.Fuzz.Case.hops
    | Fuzz.Case.Mapping _ | Fuzz.Case.Setcover _ -> 1
  in
  match Fuzz.Case.end_to_end payload with
  | Some m -> (hops, m)
  | None ->
    fail Protocol.Unsupported_case
      "%s is a SET COVER case; the service solves mapping selection" what

(* --- solving ------------------------------------------------------------ *)

let frac f =
  Json.Obj
    [
      ("num", Json.Num (float_of_int (Util.Frac.num f)));
      ("den", Json.Num (float_of_int (Util.Frac.den f)));
    ]

let emit progress ~event ?name ?dur_ns () =
  match progress with None -> () | Some p -> p ~event ?name ?dur_ns ()

(* The shared solve pipeline. [compose] calls report the hop chain and the
   composed pool next to the usual fields; their selection runs over the
   same end-to-end problem (for single-hop scenarios the composition of one
   mapping is the mapping itself, so [compose] is total). *)
let solve ?(compose = false) t ~progress (p : Protocol.solve_params) =
  let impl =
    match Core.Solver.find p.Protocol.solver with
    | Some s -> s
    | None ->
      fail (Protocol.Unknown_solver p.Protocol.solver)
        "unknown solver %S (known: %s)" p.Protocol.solver
        (String.concat ", " (Core.Solver.names ()))
  in
  emit progress ~event:"started" ();
  let hops, m = resolve p.Protocol.scenario in
  let weights = Option.value p.Protocol.weights ~default:m.Fuzz.Case.weights in
  let problem =
    Core.Problem.make ~weights ~cache:t.cache ~source:m.Fuzz.Case.source
      ~j:m.Fuzz.Case.j m.Fuzz.Case.candidates
  in
  let digest = Core.Problem.key problem in
  emit progress ~event:"resolved" ~name:digest ();
  let seed = p.Protocol.seed in
  let selection =
    try
      Cache.selection t.cache ~solver:(Core.Solver.name impl) ~seed
        ~problem_key:digest (fun () ->
          Atomic.incr t.solves;
          (Core.Solver.solve impl ?seed problem).Core.Solver.selection)
    with Core.Solver_error.Error { solver; reason } ->
      fail (Protocol.Solver_failure solver) "solver %s: %s" solver reason
  in
  let b = Core.Objective.breakdown problem selection in
  emit progress ~event:"done" ();
  let composed_fields =
    if not compose then []
    else
      [
        ("hops", Json.Num (float_of_int hops));
        ( "composed",
          Json.List
            (List.map
               (fun c -> Json.Str (Logic.Tgd.to_string c))
               m.Fuzz.Case.candidates) );
      ]
  in
  Json.Obj
    (composed_fields
    @ [
        ("solver", Json.Str (Core.Solver.name impl));
        ("digest", Json.Str digest);
        ("candidates", Json.Num (float_of_int (Core.Problem.num_candidates problem)));
        ("tuples", Json.Num (float_of_int (Core.Problem.num_tuples problem)));
        ( "selection",
          Json.List
            (List.map
               (fun i -> Json.Num (float_of_int i))
               (Core.Problem.indices_of_selection selection)) );
        ( "objective",
          Json.Obj
            [
              ("total", frac b.Core.Objective.total);
              ("unexplained", frac b.Core.Objective.unexplained);
              ("errors", Json.Num (float_of_int b.Core.Objective.errors));
              ("size", Json.Num (float_of_int b.Core.Objective.size));
            ] );
      ])

let handle (t : t) ?progress (req : Protocol.request) =
  let id = req.Protocol.id in
  let answer ~compose p =
    Atomic.incr t.handled;
    let progress = if p.Protocol.progress then progress else None in
    match solve ~compose t ~progress p with
    | body ->
      Atomic.incr t.ok;
      Protocol.Result { id; body }
    | exception Fail (kind, message) ->
      Atomic.incr t.errors;
      Protocol.Error { id; kind; message }
    | exception Util.Frac.Overflow ->
      Atomic.incr t.errors;
      Protocol.Error
        {
          id;
          kind = Protocol.Overflow;
          message = "the objective overflows native integers";
        }
    | exception exn ->
      Atomic.incr t.errors;
      Protocol.Error
        { id; kind = Protocol.Internal; message = Printexc.to_string exn }
  in
  match req.Protocol.call with
  | Protocol.Ping -> Protocol.Result { id; body = Json.Obj [ ("pong", Json.Bool true) ] }
  | Protocol.Stats -> Protocol.Result { id; body = stats_body t ~extra:[] }
  | Protocol.Shutdown ->
    Protocol.Result { id; body = Json.Obj [ ("stopping", Json.Bool true) ] }
  | Protocol.Solve p -> answer ~compose:false p
  | Protocol.Compose p -> answer ~compose:true p
