(* One in-process selection, untraced and traced.

   The untraced path is the sequence Server.Engine runs, minus parsing:
   candgen → Core.Problem.make → Core.Solver.solve → Core.Objective.value.
   The traced path makes the same calls one layer at a time — the chase and
   coverage steps exactly as Cover.analyze composes them — and times each
   call from outside. Nothing in lib/ is instrumented for the benchmark;
   the CMD sub-stages and the counters come from telemetry the program
   already records. *)

type output = {
  digest : string;  (** Core.Problem.digest *)
  selected : int list;
  objective : Util.Frac.t;
}

(* What the timed loop keeps per input: the cheap half of an output, so the
   check costs nothing next to a selection. *)
type answer = int list * Util.Frac.t

let answer_equal ((s1, o1) : answer) ((s2, o2) : answer) =
  s1 = s2 && Util.Frac.equal o1 o2

let render o =
  Printf.sprintf "%s|%s|%s" o.digest
    (String.concat "," (List.map string_of_int o.selected))
    (Util.Frac.to_string o.objective)

let digest outputs = Cache.Key.digest (List.map render outputs)

let impl name =
  match Core.Solver.find name with
  | Some s -> s
  | None -> invalid_arg ("unknown solver " ^ name)

let candidates (s : Ibench.Scenario.t) =
  Candgen.Generate.generate ~source:s.Ibench.Scenario.source
    ~target:s.Ibench.Scenario.target ~src_fkeys:s.Ibench.Scenario.src_fkeys
    ~tgt_fkeys:s.Ibench.Scenario.tgt_fkeys
    ~corrs:s.Ibench.Scenario.correspondences

let finish problem sel =
  let objective = Core.Objective.value problem sel in
  (problem, sel, objective)

let to_output (problem, sel, objective) =
  {
    digest = Core.Problem.digest problem;
    selected = Core.Problem.indices_of_selection sel;
    objective;
  }

let to_answer (_, sel, objective) : answer =
  (Core.Problem.indices_of_selection sel, objective)

let output_equal a b =
  String.equal a.digest b.digest
  && answer_equal (a.selected, a.objective) (b.selected, b.objective)

let run ?cache (inp : Workload.input) =
  let s = inp.Workload.scenario in
  let problem =
    Core.Problem.make ?cache ~source:s.Ibench.Scenario.instance_i
      ~j:s.Ibench.Scenario.instance_j (candidates s)
  in
  let sel =
    (Core.Solver.solve (impl inp.Workload.solver) ?seed:inp.Workload.seed ?cache
       problem)
      .Core.Solver.selection
  in
  finish problem sel

(* --- traced path --------------------------------------------------------------- *)

type stage = { mutable ns : int64; mutable alloc_bytes : float }

let stage () = { ns = 0L; alloc_bytes = 0. }

type stages = {
  candgen : stage;
  chase : stage;
  cover : stage;
  problem : stage;
  solve : stage;
  objective : stage;
  build : stage;  (** Problem.make through the cache (sweep) *)
  cached_solve : stage;  (** Solver.solve through the cache (sweep) *)
  mutable selections : int;
  mutable e2e_ns : int64;
  mutable candidates : int;
  mutable degrees : int;
  mutable errors : int;
}

let stages () =
  {
    candgen = stage ();
    chase = stage ();
    cover = stage ();
    problem = stage ();
    solve = stage ();
    objective = stage ();
    build = stage ();
    cached_solve = stage ();
    selections = 0;
    e2e_ns = 0L;
    candidates = 0;
    degrees = 0;
    errors = 0;
  }

let now = Measure.now

let timed st f =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  st.ns <- Int64.add st.ns (Int64.sub t1 t0);
  st.alloc_bytes <- st.alloc_bytes +. (Gc.allocated_bytes () -. a0);
  r

(* Cover.analyze's chase: one columnar source, a fresh chase per candidate,
   the row-major chase when a mixed-arity relation rules columnar out. *)
let chaser source =
  match Relational.Columnar.of_instance source with
  | col -> fun tgd -> Chase.run_columnar col [ tgd ]
  | exception Invalid_argument _ ->
    let index = Logic.Cq.Index.build source in
    fun tgd -> Chase.run ~index source [ tgd ]

let split st (inp : Workload.input) =
  let s = inp.Workload.scenario in
  let source = s.Ibench.Scenario.instance_i
  and j = s.Ibench.Scenario.instance_j in
  let cands = timed st.candgen (fun () -> candidates s) in
  let chase = timed st.chase (fun () -> chaser source) in
  let stats =
    Array.of_list
      (List.mapi
         (fun index tgd ->
           let result = timed st.chase (fun () -> chase tgd) in
           timed st.cover (fun () -> Cover.stats_of_result ~j ~index tgd result))
         cands)
  in
  let problem = timed st.problem (fun () -> Core.Problem.of_stats ~j stats) in
  let sel =
    timed st.solve (fun () ->
        (Core.Solver.solve (impl inp.Workload.solver) ?seed:inp.Workload.seed
           problem)
          .Core.Solver.selection)
  in
  st.candidates <- st.candidates + List.length cands;
  Array.iter
    (fun (x : Cover.tgd_stats) ->
      st.degrees <- st.degrees + Relational.Tuple.Map.cardinal x.Cover.covers;
      st.errors <- st.errors + Cover.error_count x)
    stats;
  timed st.objective (fun () -> finish problem sel)

let split_cached st ~cache (inp : Workload.input) =
  let s = inp.Workload.scenario in
  let cands = timed st.candgen (fun () -> candidates s) in
  let problem =
    timed st.build (fun () ->
        Core.Problem.make ~cache ~source:s.Ibench.Scenario.instance_i
          ~j:s.Ibench.Scenario.instance_j cands)
  in
  let sel =
    timed st.cached_solve (fun () ->
        (Core.Solver.solve (impl inp.Workload.solver) ?seed:inp.Workload.seed
           ~cache problem)
          .Core.Solver.selection)
  in
  st.candidates <- st.candidates + List.length cands;
  timed st.objective (fun () -> finish problem sel)

(* A traced selection: telemetry on for its duration only, so counters and
   spans cover traced selections and nothing else. *)
let traced st ?cache inp =
  Telemetry.set_enabled true;
  let t0 = now () in
  let r =
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled false)
      (fun () ->
        match cache with
        | None -> split st inp
        | Some cache -> split_cached st ~cache inp)
  in
  st.e2e_ns <- Int64.add st.e2e_ns (Int64.sub (now ()) t0);
  st.selections <- st.selections + 1;
  r
