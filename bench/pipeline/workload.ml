(* The five workloads and the inputs each one generates from the run seed.

   Every input is an iBench scenario (Section VI-A of the paper): the
   program receives the generated schemas, correspondences and data example
   — serve requests carry them as inline documents — never a generator
   seed. The workloads differ in which layer does most of the work, so a
   change to one layer shows undiluted on one workload and is predicted
   flat on the others (README.md has the full layer → metric map). *)

type kind =
  | Cold of string  (** in process, no cache, one fixed solver *)
  | Sweep  (** in process, CMD through one shared [Cache.t] *)
  | Serve  (** a fresh [cmd_serve] daemon, rotating solvers *)

type t = {
  name : string;
  kind : kind;
  rows : int;  (** source tuples per relation *)
  copies : int * int;
      (** instances of each of the seven primitives: input [k] takes the
          [k mod (hi - lo + 1)]-th count of the range [lo, hi] *)
  noise : int * int * int;  (** pi_corresp, pi_errors, pi_unexplained *)
  inputs : int;  (** distinct inputs a run cycles through *)
}

(* Every workload draws a few hundred inputs, so that a run's percentiles
   pool many scenarios; a 20 s run passes over them one to four times. The
   seed still sets part of a p90: the p90s of [wide] and [large], whose
   tails are their biggest scenarios, correlated 0.7 between two sets of
   runs over the same ten seeds. Drawing 600 inputs did not make them
   steadier and held 20 to 55 MiB more in the measured process.

   About 50 candidates over 8-row relations: candidate generation does
   most of the work, chase and cover little. *)
let wide =
  {
    name = "wide";
    kind = Cold "cmd";
    rows = 8;
    copies = (1, 3);
    noise = (100, 0, 0);
    inputs = 300;
  }

(* 32-row scenarios with noise: CMD grounding and ADMM dominate. ADMM
   converges in about 50 iterations or about 150, and pi_errors decides
   which: at 10, as in E6, near half the inputs take the short way and the
   median fell between the two groups, moving by a quarter with the seed;
   at 20, under a tenth do. *)
let small =
  {
    name = "small";
    kind = Cold "cmd";
    rows = 32;
    copies = (1, 1);
    noise = (25, 20, 20);
    inputs = 300;
  }

(* 96-row relations solved greedily: chase and cover take over 0.9 of a
   selection (at 64 rows, just under) and solving stays near 2%, so a
   chase or cover change shows undiluted here while [small] carries CMD.
   Cover is superlinear in the data, which bounds the size: at 96 rows a
   20 s run still makes about 400 selections. *)
let large =
  {
    name = "large";
    kind = Cold "greedy";
    rows = 96;
    copies = (1, 1);
    noise = (25, 20, 20);
    inputs = 300;
  }

(* pi_errors only perturbs J, so the levels of one seed share a source
   instance and the cache's chase tier hits across them. *)
let sweep_levels = [| 0; 5; 10; 15; 20; 25; 30; 40; 50 |]

(* Each point requested three times through one cache: hits beside the
   misses that fill them. The cold workloads bypass the cache. A hit's
   latency follows the size of its source instance, so the median moves
   with the few distinct sources a run draws: over ten seeds it spread 0.07
   to 0.10 with 24 of them, 0.05 with 48. *)
let sweep_warm =
  {
    name = "sweep-warm";
    kind = Sweep;
    rows = 48;
    copies = (1, 1);
    noise = (0, 0, 0);
    inputs = Array.length sweep_levels * 48;
  }

(* Distinct inline documents through a fresh daemon: nothing coalesces and
   the daemon's cache only takes writes, the opposite use to the sweep.
   Each pass over the inputs sends new variants of their documents (see
   [document]), so every request is new to the daemon. *)
let serve_distinct =
  {
    name = "serve-distinct";
    kind = Serve;
    rows = 32;
    copies = (1, 1);
    noise = (25, 10, 10);
    inputs = 300;
  }

let all = [ wide; small; large; sweep_warm; serve_distinct ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* --- inputs ------------------------------------------------------------------ *)

type input = {
  scenario : Ibench.Scenario.t;
  solver : string;
  seed : int option;  (** solver seed; the serve rotation varies it *)
}

let serve_solvers = [| "greedy"; "local"; "anneal"; "cmd" |]

(* Input [k] of workload [w] under run seed [seed]. Scenario seeds are
   hashed from (run seed, workload, k), so two run seeds share no
   scenario. *)
let input w ~seed k =
  let rec index i = function
    | [] -> invalid_arg "Workload.input"
    | x :: rest -> if x == w then i else index (i + 1) rest
  in
  let stream = (seed * 8) + index 0 all in
  let corresp, errors, unexplained = w.noise in
  let scenario_seed, pi_errors =
    match w.kind with
    | Sweep ->
      let levels = Array.length sweep_levels in
      ( Parallel.Seed.derive stream (1 + (k / levels)),
        sweep_levels.(k mod levels) )
    | Cold _ | Serve -> (Parallel.Seed.derive stream (1 + k), errors)
  in
  let copies =
    let lo, hi = w.copies in
    lo + (k mod (hi - lo + 1))
  in
  let config =
    {
      Ibench.Config.default with
      Ibench.Config.primitives = List.map (fun p -> (p, copies)) Ibench.Primitive.all;
      rows_per_relation = w.rows;
      pi_corresp = corresp;
      pi_errors;
      pi_unexplained = unexplained;
      seed = scenario_seed;
    }
  in
  let solver, solver_seed =
    match w.kind with
    | Cold s -> (s, None)
    | Sweep -> ("cmd", None)
    | Serve -> (serve_solvers.(k mod Array.length serve_solvers), Some k)
  in
  { scenario = Ibench.Generator.generate config; solver; seed = solver_seed }

(* The inline document a serve request carries: no tgds, so the daemon
   generates candidates from the correspondences, as in process. Variant
   [v > 0] prefixes every constant with "v<v>_": the daemon has cached
   nothing under the new data, yet the renaming is an isomorphism that
   keeps the constants' order, so the work and the answer stay those of
   variant 0. *)
let document ?(variant = 0) (s : Ibench.Scenario.t) =
  let rename =
    if variant = 0 then Fun.id
    else
      let prefix = Printf.sprintf "v%d_" variant in
      Relational.Instance.map_values (function
        | Relational.Value.Const c -> Relational.Value.Const (prefix ^ c)
        | null -> null)
  in
  Serialize.Document.to_string
    {
      Serialize.Document.source = s.Ibench.Scenario.source;
      target = s.Ibench.Scenario.target;
      src_fkeys = s.Ibench.Scenario.src_fkeys;
      tgt_fkeys = s.Ibench.Scenario.tgt_fkeys;
      correspondences = s.Ibench.Scenario.correspondences;
      tgds = [];
      instance_i = rename s.Ibench.Scenario.instance_i;
      instance_j = rename s.Ibench.Scenario.instance_j;
    }

(* An input as a run holds it until its turn: marshalled, so the inputs
   waiting add nothing for the collector to walk during a selection. Held
   as values, 300 inputs made a selection 1.6 times as slow and took 285 MiB
   of the measured process's memory. *)
type packed = { bytes : string; i : int; j : int; candidates : int }

let pack inp =
  let s = inp.scenario in
  {
    bytes = Marshal.to_string inp [];
    i = Relational.Instance.cardinal s.Ibench.Scenario.instance_i;
    j = Relational.Instance.cardinal s.Ibench.Scenario.instance_j;
    candidates = List.length s.Ibench.Scenario.candidates;
  }

let unpack p : input = Marshal.from_string p.bytes 0

(* Mean |I|, |J| and candidate count over a run's inputs, for the header. *)
let describe packed =
  let avg f =
    Util.Stats.mean (Array.to_list (Array.map (fun p -> float_of_int (f p)) packed))
  in
  (avg (fun p -> p.i), avg (fun p -> p.j), avg (fun p -> p.candidates))

(* --- request order ------------------------------------------------------------ *)

(* Cold and served workloads cycle through their inputs, one request per
   unit; an epoch is one pass. The sweep's unit is a block of two points
   requested three times each (p0 p1 p0 p1 p0 p1), so any whole number of
   blocks is one third misses; an epoch is one pass over every block, and
   each epoch gets a fresh cache. *)
let sweep_block = [| 0; 1; 0; 1; 0; 1 |]

let unit_size w =
  match w.kind with Sweep -> Array.length sweep_block | Cold _ | Serve -> 1

let units_per_epoch w =
  match w.kind with Sweep -> w.inputs / 2 | Cold _ | Serve -> w.inputs

let request w ~unit ~pos =
  match w.kind with
  | Sweep -> (unit mod units_per_epoch w * 2) + sweep_block.(pos)
  | Cold _ | Serve -> unit mod w.inputs

let epoch w ~unit = unit / units_per_epoch w
