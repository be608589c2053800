(* Shared plumbing: clocks, budgets, process memory, input generation,
   failure accounting and the record every workload run produces. *)

let now = Util.Timer.now_ns

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let s_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

(* A timed phase runs for a wall-clock budget (benchmark runs) or for a
   fixed number of request units (the smoke test, which must not depend on
   the machine's speed). *)
type budget = Seconds of float | Units of int

let continues budget ~t0 ~units =
  match budget with Seconds s -> s_since t0 < s | Units n -> units < n

type result = {
  samples_ms : float array;
      (** the latency of every untraced selection of the timed phase, at
          the reference speed (see [Speed]) *)
  attempted : int;
  failed : int;
  setup_s : float;
      (** median of [setup_probes] set-ups: in process at the reference
          speed, the daemon's as measured *)
  reference_ms : float;  (** the run's median reference time (see [Speed]) *)
  peak_rss_mb : float;
  digest : string;  (** outputs_digest over the first [digest_inputs] inputs *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
  mean_i : float;  (** mean source tuples per input *)
  mean_j : float;  (** mean target tuples per input *)
  mean_candidates : float;
  gen_s : float;  (** input generation, logged and never a metric *)
}

(* setup_s is the median of this many set-ups in one run. *)
let setup_probes = 15

(* The outputs_digest covers this many inputs of every workload, few enough
   that the smoke test reaches them all and the golden file applies to it. *)
let digest_inputs = 4

(* --- failures ---------------------------------------------------------------- *)

type checks = { mutable failures : int }

let checks () = { failures = 0 }

let log fmt = Printf.ksprintf (fun m -> Printf.eprintf "pipeline: %s\n%!" m) fmt

let fail c fmt =
  Printf.ksprintf
    (fun m ->
      c.failures <- c.failures + 1;
      log "FAIL %s" m)
    fmt

(* --- machine and process ----------------------------------------------------- *)

(* A [kB] field of /proc/<pid>/status, in MiB; 0 where /proc is missing. *)
let status_mb ?(pid = "self") field =
  let prefix = field ^ ":" in
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line when String.starts_with ~prefix line -> (
        let start = String.length prefix in
        let value = String.sub line start (String.length line - start) in
        match Scanf.sscanf value " %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> 0.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Lowers VmHWM to the current RSS, so the peak read after a timed phase is
   that phase's own. A no-op where the kernel does not offer it. *)
let reset_peak () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc "5")
  with Sys_error _ -> ()

let nproc =
  lazy
    (match Unix.open_process_args_in "nproc" [| "nproc" |] with
    | ic ->
      let n =
        try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None
      in
      ignore (Unix.close_process_in ic);
      Option.value n ~default:(Domain.recommended_domain_count ())
    | exception Unix.Unix_error _ -> Domain.recommended_domain_count ())

(* Children generating inputs. *)
let parallelism () = min 2 (Lazy.force nproc)

(* Starts [f ()] in a forked child that marshals its result back; [join]
   waits for it, [None] when the child failed. Forking is only safe before
   any domain is spawned, which this program never does. *)
let spawn f =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      match f () with
      | v ->
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc v [];
        close_out oc;
        0
      | exception e ->
        log "child failed: %s" (Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    (pid, Unix.in_channel_of_descr rd)

let join (pid, ic) =
  let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
  close_in_noerr ic;
  ignore (Unix.waitpid [] pid);
  v

(* --- machine speed ------------------------------------------------------------ *)

(* On a shared machine the same code runs up to 1.8 times as slow, in
   stretches from a fraction of a second to minutes, and a slowdown comes
   in on every workload at once, so no length of run or best of repeats
   averages it away. A fixed reference workload slows in step with it:
   20k inserts into an OCaml hash table of int keys and string values,
   then 20k lookups, which allocates, collects and misses the caches as a
   selection does. Beside a selection loop its median over 10 s moved with
   the selections' (correlation 0.95); a pointer chase within the L2 cache
   missed most of the slowdown.

   The reference runs in a child forked before the inputs load, so its
   heap and collector are its own and nothing the program under test
   allocates can change its time; each reference time is the second of two
   runs in a row, so neither do the caches the program left behind. A run
   asks for one every [interval_ns] (the benchmark waits meanwhile, so the
   two never share a core) and reports each selection at the reference
   speed: scaled by [reference_ms] over the median reference time within
   [window_ns] of it. README.md has the spreads with and without. *)
module Speed = struct
  let work () =
    let h = Hashtbl.create 16 in
    for i = 0 to 19_999 do
      Hashtbl.replace h (i * 7919) (i, string_of_int i)
    done;
    let s = ref 0 in
    for i = 0 to 19_999 do
      match Hashtbl.find_opt h (i * 7919) with Some (x, _) -> s := !s + x | None -> ()
    done;
    ignore (Sys.opaque_identity !s)

  let interval_ns = 150_000_000L

  let window_ns = 500_000_000L

  (* about the median reference time on the two-vCPU Xeon VM of README.md *)
  let reference_ms = 10.

  type t = {
    pid : int;
    ask : Unix.file_descr;
    answers : in_channel;
    mutable times : (int64 * float) list;  (** when, ms; newest first *)
    mutable live : bool;
  }

  (* The child runs [work] twice per byte it reads and answers with the
     second run's time in ms on a line; it exits when the benchmark closes
     the pipe. *)
  let serve ask answers =
    let oc = Unix.out_channel_of_descr answers in
    let b = Bytes.create 1 in
    let rec loop () =
      match Unix.read ask b 0 1 with
      | 1 ->
        work ();
        let t0 = now () in
        work ();
        Printf.fprintf oc "%.6f\n%!" (ms_between t0 (now ()));
        loop ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    in
    (try loop () with _ -> ());
    Unix._exit 0

  let stop t =
    if t.live then begin
      t.live <- false;
      Unix.close t.ask;
      close_in_noerr t.answers;
      ignore (Unix.waitpid [] t.pid)
    end

  let start () =
    let ask_r, ask_w = Unix.pipe ~cloexec:true () in
    let ans_r, ans_w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close ask_w;
      Unix.close ans_r;
      serve ask_r ans_w
    | pid ->
      Unix.close ask_r;
      Unix.close ans_w;
      let t =
        { pid; ask = ask_w; answers = Unix.in_channel_of_descr ans_r; times = []; live = true }
      in
      at_exit (fun () -> stop t);
      t

  (* one reference time, now *)
  let measure t =
    ignore (Unix.write_substring t.ask "x" 0 1);
    let ms = float_of_string (input_line t.answers) in
    t.times <- (now (), ms) :: t.times

  (* a reference time when the last is [interval_ns] old *)
  let tick t =
    match t.times with
    | (last, _) :: _ when Int64.sub (now ()) last < interval_ns -> ()
    | _ -> measure t

  let ms_of t = List.map snd t.times

  let median_ms t = if t.times = [] then reference_ms else Util.Stats.median (ms_of t)

  (* [ms], measured at [at], at the reference speed *)
  let scaled t ~at ms =
    let near =
      List.filter_map
        (fun (w, r) -> if Int64.abs (Int64.sub w at) <= window_ns then Some r else None)
        t.times
    in
    let local =
      match (near, t.times) with
      | _ :: _, _ -> Util.Stats.median near
      | [], [] -> reference_ms
      | [], first :: rest ->
        let gap (w, _) = Int64.abs (Int64.sub w at) in
        snd (List.fold_left (fun a x -> if gap x < gap a then x else a) first rest)
    in
    ms *. reference_ms /. local

  let log_summary t name =
    if t.times <> [] then
      Printf.eprintf
        "pipeline: %s: %d reference times, min %.4f p10 %.4f median %.4f ms\n%!" name
        (List.length t.times)
        (List.fold_left Float.min infinity (ms_of t))
        (Util.Stats.percentile 10. (ms_of t))
        (median_ms t)
end

(* [Array.map f xs], computed by parallel children over contiguous slices.
   Input generation allocates far more than it keeps, and OCaml does not
   hand that memory back; generating in children keeps it out of the
   measuring process's heap and RSS, and splits the wait over the cores.

   A child sends its results one value at a time. Sent as one array, a
   slice came through a read buffer of several MiB that the C allocator
   kept or returned depending on which slice was bigger, so the measuring
   process's RSS moved by 4 to 7 MiB with the seed. *)
let generate f xs =
  let n = Array.length xs and jobs = parallelism () in
  let slice i =
    let lo = i * n / jobs and hi = (i + 1) * n / jobs in
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let code =
        match Array.map (fun x -> Marshal.to_string (f x) []) (Array.sub xs lo (hi - lo)) with
        | values ->
          let oc = Unix.out_channel_of_descr wr in
          Array.iter (output_string oc) values;
          close_out oc;
          0
        | exception e ->
          log "child failed: %s" (Printexc.to_string e);
          2
      in
      Unix._exit code
    | pid ->
      Unix.close wr;
      (pid, Unix.in_channel_of_descr rd, hi - lo)
  in
  let receive (pid, ic, len) =
    let v =
      try Some (Array.init len (fun _ -> Marshal.from_channel ic))
      with End_of_file | Failure _ -> None
    in
    close_in_noerr ic;
    ignore (Unix.waitpid [] pid);
    v
  in
  let slices = List.map receive (List.init jobs slice) in
  if List.mem None slices then failwith "input generation failed";
  Array.concat (List.filter_map Fun.id slices)

(* --- statistics -------------------------------------------------------------- *)

let percentile p xs = Util.Stats.percentile p (Array.to_list xs)

let median = Util.Stats.median

let mean = Util.Stats.mean
