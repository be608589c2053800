type failure = {
  oracle : string;
  detail : string;
  original : Case.t;
  shrunk : Case.t option;
}

type summary = {
  seed : int;
  budget : int;
  passed : int;
  skipped : int;
  by_oracle : (string * (int * int * int)) list;
  by_tag : (string * int) list;
  failures : failure list;
}

(* One worker task: generate case [i] and run every oracle on it. Pure in
   [(seed, i, oracles)], per the pool's determinism contract — the cache
   only memoizes bit-identical results, so it leaves the verdicts untouched
   too. Shrinking happens in [run]'s fold, once per family. *)
let check_case ?cache oracles ~seed i =
  let case = Gen.case ~seed:(Parallel.Seed.derive seed i) in
  (case, List.map (fun (o : Oracle.t) -> (o, Oracle.run ?cache o case)) oracles)

(* The failure message on the 1-minimal shrink of a failing case, and the
   shrink: what lands in the corpus. *)
let shrink ?cache (o : Oracle.t) case detail =
  let shrunk = Shrink.shrink ~fails:(Oracle.is_failure ?cache o) case in
  let detail =
    match Oracle.run ?cache o shrunk with Oracle.Fail d -> d | _ -> detail
  in
  (detail, Some shrunk)

(* Campaign counters are bumped in the deterministic fold below — never in
   the worker tasks — so the totals are a pure function of (seed, budget,
   oracles), identical for any pool size. *)
let cases_counter = Telemetry.Counter.make "fuzz.cases"

let checks_counter = Telemetry.Counter.make "fuzz.checks"

let failures_counter = Telemetry.Counter.make "fuzz.failures"

let run ?pool ?cache ?(oracles = Oracle.all) ~seed ~budget () =
  Telemetry.with_span "fuzz.campaign" @@ fun () ->
  let indices = Array.init (max budget 0) Fun.id in
  let reports =
    let task = check_case ?cache oracles ~seed in
    match pool with
    | Some pool -> Parallel.Pool.parallel_map pool task indices
    | None -> Array.map task indices
  in
  (* Fold in case order (the array is already index-ordered). *)
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (o : Oracle.t) -> Hashtbl.replace counts o.Oracle.name (0, 0, 0))
    oracles;
  let tag_counts = Hashtbl.create 8 in
  let passed = ref 0 and skipped = ref 0 in
  let failures = ref [] in
  Array.iter
    (fun ((case : Case.t), outcomes) ->
      Hashtbl.replace tag_counts case.Case.tag
        (1 + Option.value (Hashtbl.find_opt tag_counts case.Case.tag) ~default:0);
      List.iter
        (fun ((o : Oracle.t), verdict) ->
          let name = o.Oracle.name in
          let p, s, f = Hashtbl.find counts name in
          match verdict with
          | Oracle.Pass ->
            incr passed;
            Hashtbl.replace counts name (p + 1, s, f)
          | Oracle.Skip ->
            incr skipped;
            Hashtbl.replace counts name (p, s + 1, f)
          | Oracle.Fail detail ->
            Hashtbl.replace counts name (p, s, f + 1);
            (* only the family's first failure, in case order, is shrunk *)
            let detail, shrunk =
              if f > 0 then (detail, None) else shrink ?cache o case detail
            in
            failures :=
              { oracle = name; detail; original = case; shrunk } :: !failures)
        outcomes)
    reports;
  Telemetry.Counter.add cases_counter (max budget 0);
  Telemetry.Counter.add checks_counter
    (!passed + !skipped + List.length !failures);
  Telemetry.Counter.add failures_counter (List.length !failures);
  {
    seed;
    budget = max budget 0;
    passed = !passed;
    skipped = !skipped;
    by_oracle =
      List.map
        (fun (o : Oracle.t) -> (o.Oracle.name, Hashtbl.find counts o.Oracle.name))
        oracles;
    by_tag =
      List.filter_map
        (fun tag ->
          Option.map (fun n -> (tag, n)) (Hashtbl.find_opt tag_counts tag))
        Gen.tags;
    failures = List.rev !failures;
  }

let pp_summary ppf s =
  let failed = List.length s.failures in
  Format.fprintf ppf "fuzz: seed %d, budget %d, %d oracle families@." s.seed
    s.budget (List.length s.by_oracle);
  Format.fprintf ppf "  %-18s %6s %6s %6s@." "oracle" "pass" "skip" "fail";
  List.iter
    (fun (name, (p, sk, f)) ->
      Format.fprintf ppf "  %-18s %6d %6d %6d@." name p sk f)
    s.by_oracle;
  Format.fprintf ppf "  cases by tag:%s@."
    (String.concat ","
       (List.map (fun (t, n) -> Printf.sprintf " %s %d" t n) s.by_tag));
  List.iter
    (fun f ->
      Format.fprintf ppf "  FAIL %s on seed %d (%s): %s@." f.oracle
        f.original.Case.seed f.original.Case.tag f.detail;
      Option.iter (Format.fprintf ppf "    shrunk to %a@." Case.pp) f.shrunk)
    s.failures;
  Format.fprintf ppf "  %d checks: %d passed, %d skipped, %d failed@."
    (s.passed + s.skipped + failed)
    s.passed s.skipped failed

let save_failures ~dir s =
  List.filter_map
    (fun f ->
      Option.map
        (fun case ->
          Corpus.save ~dir { Corpus.oracle = f.oracle; detail = f.detail; case })
        f.shrunk)
    s.failures

let replay ?(oracles = Oracle.all) (e : Corpus.entry) =
  match
    List.find_opt (fun (o : Oracle.t) -> o.Oracle.name = e.Corpus.oracle) oracles
  with
  | None -> Error (Printf.sprintf "unknown oracle '%s'" e.Corpus.oracle)
  | Some o -> (
    match Oracle.run o e.Corpus.case with
    | Oracle.Pass | Oracle.Skip -> Ok ()
    | Oracle.Fail msg -> Error msg)
