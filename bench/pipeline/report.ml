(* Turning runs into metrics: the result line a benchmark run prints, the
   raw record a full run collects from its children, the full report and
   the comparison of two sets of reports. *)

open Measure
module Json = Util.Json

let num f = Json.Num f

let metric_json name v =
  let unit = match Spec.find name with Some s -> s.Spec.unit | None -> "fraction" in
  (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit) ])

(* The end-to-end metrics of one untraced run. The throughput is that of
   one caller at the measured latencies. *)
let end_to_end r =
  [
    ("select_p50_ms", percentile 50. r.samples_ms);
    ("select_p90_ms", percentile 90. r.samples_ms);
    ("selects_per_s", 1e3 /. mean (Array.to_list r.samples_ms));
    ("setup_s", r.setup_s);
    ("peak_rss_mb", r.peak_rss_mb);
  ]

let result_line r ~trace ~failed =
  let metrics = if trace then r.layers else end_to_end r in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", num (float_of_int (max 1 r.attempted)));
         ("failed", num (float_of_int failed));
         ("metrics", Json.Obj (List.map (fun (k, v) -> metric_json k v) metrics));
       ])

(* --- raw records, child → parent ------------------------------------------------ *)

let raw_line r ~failed =
  let floats a = Json.List (Array.to_list (Array.map num a)) in
  Json.to_string
    (Json.Obj
       [
         ("samples_ms", floats r.samples_ms);
         ("attempted", num (float_of_int r.attempted));
         ("failed", num (float_of_int failed));
         ("setup_s", num r.setup_s);
         ("reference_ms", num r.reference_ms);
         ("peak_rss_mb", num r.peak_rss_mb);
         ("digest", Json.Str r.digest);
         ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
         ("mean_i", num r.mean_i);
         ("mean_j", num r.mean_j);
         ("mean_candidates", num r.mean_candidates);
         ("gen_s", num r.gen_s);
       ])

let of_raw j =
  let f name =
    Option.value ~default:nan (Option.bind (Json.member name j) Json.to_float)
  in
  let floats = function
    | Some (Json.List l) -> List.filter_map Json.to_float l
    | _ -> []
  in
  {
    samples_ms = Array.of_list (floats (Json.member "samples_ms" j));
    attempted = int_of_float (f "attempted");
    failed = int_of_float (f "failed");
    setup_s = f "setup_s";
    reference_ms = f "reference_ms";
    peak_rss_mb = f "peak_rss_mb";
    digest =
      Option.value ~default:"" (Option.bind (Json.member "digest" j) Json.to_str);
    layers =
      (match Json.member "layers" j with
      | Some (Json.Obj kv) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_float v))
          kv
      | _ -> []);
    mean_i = f "mean_i";
    mean_j = f "mean_j";
    mean_candidates = f "mean_candidates";
    gen_s = f "gen_s";
  }

(* Quartiles exactly as Python's statistics.quantiles(xs, n=4) (the default
   exclusive method) computes them. *)
let quartiles xs =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* --- the full report ------------------------------------------------------------ *)

type rounds = {
  w : Workload.t;
  untraced : result list;
  traced : result list;
}

let workload_json r =
  let all = r.untraced @ r.traced in
  let sum f = List.fold_left (fun a x -> a +. f x) 0. in
  let first = List.hd all in
  (* the untraced rounds as one run: samples pooled *)
  let pooled =
    {
      first with
      samples_ms = Array.concat (List.map (fun x -> x.samples_ms) r.untraced);
      setup_s = median (List.map (fun x -> x.setup_s) r.untraced);
      peak_rss_mb = List.fold_left (fun a x -> Float.max a x.peak_rss_mb) 0. r.untraced;
    }
  in
  let metrics =
    end_to_end pooled
    @ [
        ( "fail_frac",
          sum (fun x -> float_of_int x.failed) all
          /. Float.max 1. (sum (fun x -> float_of_int x.attempted) all) );
      ]
  in
  let rounds =
    List.map
      (fun m ->
        ( m.Spec.name,
          Json.List
            (List.map (fun x -> num (List.assoc m.Spec.name (end_to_end x))) r.untraced)
        ))
      Spec.end_to_end
  in
  let layer name =
    mean
      (List.map
         (fun x -> Option.value ~default:0. (List.assoc_opt name x.layers))
         r.traced)
  in
  ( r.w.Workload.name,
    Json.Obj
      [
        ( "inputs",
          Json.Obj
            [
              ("mean_i", num first.mean_i);
              ("mean_j", num first.mean_j);
              ("candidates", num first.mean_candidates);
              ("samples", num (float_of_int (Array.length pooled.samples_ms)));
              ("reference_ms", num (median (List.map (fun x -> x.reference_ms) r.untraced)));
              ("gen_s", num (mean (List.map (fun x -> x.gen_s) all)));
            ] );
        ("metrics", Json.Obj (List.map (fun (k, v) -> metric_json k v) metrics));
        ("rounds", Json.Obj rounds);
        ( "layers",
          Json.Obj (List.map (fun n -> metric_json n (layer n)) Spec.layer_names) );
        ("outputs_digest", Json.Str first.digest);
      ] )

let report_json ~header reports =
  Json.Obj
    [ ("header", header); ("workloads", Json.Obj (List.map workload_json reports)) ]

let get j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let value j path = Option.value ~default:nan (Option.bind (get j path) Json.to_float)

(* What each workload exists to show, read off the traced run. Printed, not
   enforced: shares move with the machine. *)
let expectations =
  let layer w name j = value j [ "workloads"; w; "layers"; name; "value" ] in
  let all_workloads f j =
    List.for_all (fun (w : Workload.t) -> f w.Workload.name j) Workload.all
  in
  [
    ("wide candgen.share >= 0.5", fun j -> layer "wide" "candgen.share" j >= 0.5);
    ("small solve.share >= 0.6", fun j -> layer "small" "solve.share" j >= 0.6);
    ( "large chase.share + cover.share >= 0.9",
      fun j -> layer "large" "chase.share" j +. layer "large" "cover.share" j >= 0.9 );
    ( "sweep-warm solve.runs <= 1/3",
      fun j -> layer "sweep-warm" "solve.runs" j <= 1. /. 3. );
    ( "serve-distinct server.coalesced = 0, server.solves = 1",
      fun j ->
        layer "serve-distinct" "server.coalesced" j = 0.
        && layer "serve-distinct" "server.solves" j = 1. );
    ( "trace.unattributed_pct <= 3",
      all_workloads (fun w j -> layer w "trace.unattributed_pct" j <= 3.) );
    ( "|trace.overhead_pct| <= 5",
      all_workloads (fun w j -> Float.abs (layer w "trace.overhead_pct" j) <= 5.) );
  ]

let print_report j =
  let open Printf in
  (match get j [ "header" ] with
  | Some (Json.Obj kv) ->
    printf "%s\n"
      (String.concat "  " (List.map (fun (k, v) -> k ^ " " ^ Json.to_string v) kv))
  | _ -> ());
  let row label cell =
    printf "%-26s" label;
    List.iter
      (fun (w : Workload.t) -> printf " %14s" (cell w.Workload.name))
      Workload.all;
    printf "\n"
  in
  row "" Fun.id;
  List.iter
    (fun k ->
      row ("inputs." ^ k) (fun w ->
          sprintf "%.1f" (value j [ "workloads"; w; "inputs"; k ])))
    [ "mean_i"; "mean_j"; "candidates"; "samples"; "reference_ms"; "gen_s" ];
  let metric section (name, unit) =
    row (sprintf "%s (%s)" name unit) (fun w ->
        sprintf "%.4g" (value j [ "workloads"; w; section; name; "value" ]))
  in
  List.iter (metric "metrics")
    (List.map (fun m -> (m.Spec.name, m.Spec.unit)) Spec.end_to_end
    @ [ ("fail_frac", "fraction") ]);
  List.iter
    (fun m ->
      row (m.Spec.name ^ " spread") (fun w ->
          match get j [ "workloads"; w; "rounds"; m.Spec.name ] with
          | Some (Json.List vs) ->
            let vs = List.filter_map Json.to_float vs in
            let hi = List.fold_left Float.max neg_infinity vs
            and lo = List.fold_left Float.min infinity vs in
            sprintf "%.3f" ((hi -. lo) /. median vs)
          | _ -> "-"))
    Spec.end_to_end;
  List.iter (metric "layers")
    (List.map (fun m -> (m.Spec.name, m.Spec.unit)) Spec.layers);
  row "outputs_digest" (fun w ->
      match get j [ "workloads"; w; "outputs_digest" ] with
      | Some (Json.Str d) -> String.sub d 0 (min 12 (String.length d))
      | _ -> "-");
  List.iter
    (fun (label, holds) ->
      printf "expect %-54s %s\n" label (if holds j then "ok" else "MISS"))
    expectations

(* --- comparison ------------------------------------------------------------------ *)

type bound = { metric : string; bound : float; higher : bool }

let bounds_of_benchmark path =
  match Json.load path with
  | Error e -> failwith e
  | Ok j ->
    let str k x = Option.bind (Json.member k x) Json.to_str in
    List.filter_map
      (fun it ->
        let bound = Option.bind (Json.member "bound" it) Json.to_float in
        match (str "name" it, bound, str "better" it) with
        | Some metric, Some bound, Some better ->
          Some { metric; bound; higher = better = "higher" }
        | _ -> None)
      (Option.value ~default:[] (Option.bind (Json.member "end_to_end" j) Json.to_list))

(* One side's values of a metric: its rounds, across all of the side's
   reports. *)
let side_values reports ~workload ~metric =
  List.concat_map
    (fun j ->
      match get j [ "workloads"; workload; "rounds"; metric ] with
      | Some (Json.List vs) -> List.filter_map Json.to_float vs
      | _ -> [])
    reports

(* Prints a verdict per (workload, metric) and returns how many are worse. *)
let compare ~benchmark a_files b_files =
  let load files =
    List.map
      (fun p -> match Json.load p with Ok j -> j | Error e -> failwith e)
      (String.split_on_char ',' files)
  in
  let a = load a_files and b = load b_files in
  let bounds = bounds_of_benchmark benchmark in
  Printf.printf "%-15s %-14s %10s %10s %10s %10s %10s %10s %8s %6s  %s\n"
    "workload" "metric" "A q1" "A median" "A q3" "B q1" "B median" "B q3" "change"
    "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun bd ->
          let va = side_values a ~workload:w.Workload.name ~metric:bd.metric in
          let vb = side_values b ~workload:w.Workload.name ~metric:bd.metric in
          let a1, am, a3 = quartiles va and b1, bm, b3 = quartiles vb in
          let change = (bm -. am) /. am in
          let spread = Float.max ((a3 -. a1) /. am) ((b3 -. b1) /. bm) in
          let verdict =
            if va = [] || vb = [] || not (spread <= bd.bound) then "unresolved"
            else if (if bd.higher then -.change else change) > bd.bound then begin
              incr worse;
              "worse"
            end
            else "ok"
          in
          Printf.printf
            "%-15s %-14s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %+7.1f%% %5.0f%%  %s\n"
            w.Workload.name bd.metric a1 am a3 b1 bm b3 (100. *. change)
            (100. *. bd.bound) verdict)
        bounds)
    Workload.all;
  !worse
