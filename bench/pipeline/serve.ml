(* The serve-distinct workload: a fresh cmd_serve per run, driven by a
   closed loop of [connections] clients with one request outstanding each.
   Every request carries a distinct inline document, so the daemon's cache
   only ever takes writes and nothing coalesces. *)

open Measure
module Json = Util.Json

(* One client and one daemon worker. On two cores the client, the
   daemon's dispatcher and a second worker domain contend for the CPU, so
   more of either measures the scheduler: two connections to two workers
   served fewer requests a second than one to one. *)
let connections = 1

let jobs = 1

(* --- the daemon ---------------------------------------------------------------- *)

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* The daemon's settings come from its flags, not from whatever tracing,
   cache or pool variables the benchmark was started with. *)
let daemon_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (List.exists
              (fun v -> String.starts_with ~prefix:(v ^ "=") kv)
              [ "TELEMETRY"; "CACHE_DIR"; "PARALLEL_JOBS" ]))
  |> Array.of_list

type daemon = { pid : int; socket : string }

type conn = { fd : Unix.file_descr; inbuf : Buffer.t }

let connect socket =
  let t0 = now () in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> { fd; inbuf = Buffer.create 4096 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when s_since t0 < 30. ->
      Unix.close fd;
      Unix.sleepf 0.001;
      attempt ()
  in
  attempt ()

let write_line conn line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring conn.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let chunk = Bytes.create 65536

(* The complete lines that arrived; a closed connection is an error, so a
   dead daemon never looks like a slow one. *)
let read_lines conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
    Buffer.add_subbytes conn.inbuf chunk 0 n;
    let parts = String.split_on_char '\n' (Buffer.contents conn.inbuf) in
    let rec split acc = function
      | [ rest ] ->
        Buffer.clear conn.inbuf;
        Buffer.add_string conn.inbuf rest;
        List.rev acc
      | l :: tl -> split (if l = "" then acc else l :: acc) tl
      | [] -> List.rev acc
    in
    split [] parts
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* One synchronous call on an idle connection. *)
let call conn line =
  write_line conn line;
  let rec wait () =
    match Unix.select [ conn.fd ] [] [] 30. with
    | [], _, _ -> failwith "no answer from the daemon within 30s"
    | _ -> ( match read_lines conn with [] -> wait () | l :: _ -> l)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match Json.parse_line (wait ()) with
  | Ok j -> j
  | Error e -> failwith (Format.asprintf "unparseable answer: %a" Json.pp_error e)

let control meth =
  Json.to_string (Json.Obj [ ("id", Json.Str meth); ("method", Json.Str meth) ])

let start ~bin ~jobs ~socket =
  let args =
    [| bin; "--socket"; socket; "--jobs"; string_of_int jobs; "--cache"; "mem" |]
  in
  let pid =
    Unix.create_process_env bin args (daemon_env ()) Unix.stdin Unix.stderr
      Unix.stderr
  in
  live := pid :: !live;
  { pid; socket }

let stop d =
  (match connect d.socket with
  | conn ->
    (try ignore (call conn (control "shutdown")) with Failure _ -> ());
    Unix.close conn.fd
  | exception Unix.Unix_error _ -> Unix.kill d.pid Sys.sigterm);
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (fun p -> p <> d.pid) !live

(* Set-up is spawn → first pong, measured on [setup_probes] daemons; the
   median is reported and the last daemon serves the run. Unlike a
   selection it is mostly process start-up, which does not slow in step
   with the reference workload of [Speed]: scaled, ten runs spread 0.24,
   as measured 0.04. So it is reported as measured. *)
let setup ~bin ~socket =
  let once () =
    let t0 = now () in
    let d = start ~bin ~jobs ~socket in
    let conn = connect socket in
    let pong = call conn (control "ping") in
    let dt = s_since t0 in
    Unix.close conn.fd;
    if Option.bind (Json.member "result" pong) (Json.member "pong")
       <> Some (Json.Bool true)
    then failwith "daemon did not answer ping";
    (d, dt)
  in
  let rec measure k times =
    let d, dt = once () in
    if k = 1 then (d, median (dt :: times))
    else begin
      stop d;
      measure (k - 1) (dt :: times)
    end
  in
  measure setup_probes []

(* --- requests ------------------------------------------------------------------ *)

let request_line k (inp : Workload.input) doc ~progress =
  let seed =
    Option.fold ~none:[] ~some:(fun s -> [ ("seed", Json.Num (float_of_int s)) ])
      inp.Workload.seed
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str (Printf.sprintf "r%d" k));
         ("method", Json.Str "solve");
         ( "params",
           Json.Obj
             ([ ("scenario", Json.Str doc); ("solver", Json.Str inp.Workload.solver) ]
             @ seed
             @ [ ("progress", Json.Bool progress) ]) );
       ])

(* A traced request's lifecycle: sent, one progress frame per event, then
   the response; the stage metrics are the gaps between them. *)
let events = [| "queued"; "started"; "resolved"; "done" |]

let stage_names =
  [|
    "server.admit_ms"; "server.queue_ms"; "server.build_ms"; "server.solve_ms";
    "server.reply_ms";
  |]

(* The daemon caches every answer until its capacity, so its memory grows
   with the requests served. Its peak is read after a fixed number of
   requests, so that a faster daemon does not read as a fatter one. *)
let rss_requests = 128

let output_of_result r =
  let ( let* ) = Option.bind in
  let int name j = Option.bind (Json.member name j) Json.to_int in
  let* digest = Option.bind (Json.member "digest" r) Json.to_str in
  let* sel = Option.bind (Json.member "selection" r) Json.to_list in
  let* total = Option.bind (Json.member "objective" r) (Json.member "total") in
  let* num = int "num" total in
  let* den = int "den" total in
  let selected = List.filter_map Json.to_int sel in
  if List.length selected <> List.length sel then None
  else Some { Select.digest; selected; objective = Util.Frac.make num den }

let id_index j =
  match Option.bind (Json.member "id" j) Json.to_str with
  | Some s when String.length s > 1 && s.[0] = 'r' ->
    int_of_string_opt (String.sub s 1 (String.length s - 1))
  | _ -> None

(* One request: when it was sent, when each event and then the response
   arrived (0 until then), and the daemon's answer. *)
type request = {
  input : int;
  variant : int;
  traced : bool;  (** sent with progress frames *)
  sent : int64;
  at : int64 array;
  mutable answer : Select.output option;
}

let run (w : Workload.t) ~seed ~budget ~trace ~bin =
  let c = checks () in
  let speed = Speed.start () in
  let n =
    match budget with
    | Seconds _ -> w.Workload.inputs
    | Units u -> min w.Workload.inputs (max u digest_inputs)
  in
  let t_gen = now () in
  let packed, docs =
    Array.split
      (generate
         (fun k ->
           let i = Workload.input w ~seed k in
           (Workload.pack i, Workload.document i.Workload.scenario))
         (Array.init n Fun.id))
  in
  let gen_s = s_since t_gen in
  let mean_i, mean_j, mean_candidates = Workload.describe packed in
  let input b = Workload.unpack packed.(b) in
  log "%s: generated %d documents in %.2fs (mean |I| %.0f, |J| %.0f, %.1f candidates)"
    w.Workload.name n gen_s mean_i mean_j mean_candidates;
  (* relative to the daemon's directory: inside the build tree, and short
     enough for a socket address *)
  let socket =
    Filename.concat (Filename.dirname bin)
      (Printf.sprintf ".pipeline-%d.sock" (Unix.getpid ()))
  in
  let daemon, setup_s = setup ~bin ~socket in
  let pid = string_of_int daemon.pid in
  let conns = Array.init connections (fun _ -> connect socket) in
  let requests = Hashtbl.create 1024 in
  let response = Array.length events in
  (* With tracing, each input goes out twice in a row, as two variants, one
     with progress frames and one without, alternating which is first: the
     traced requests and the untraced ones are the same scenarios. *)
  let copies = if trace then 2 else 1 in
  let next = ref 0 and in_flight = ref 0 and completed = ref 0 in
  let rss_mb = ref 0. in
  let limit = match budget with Units u -> u | Seconds _ -> max_int in
  let t0 = now () in
  (* a request's variant is rendered here, before its clock starts *)
  let send_next conn =
    if !next < limit && continues budget ~t0 ~units:!next then begin
      let k = !next in
      incr next;
      let b = k / copies mod n in
      let variant = (k / (copies * n) * copies) + (k mod copies) in
      let traced = trace && (variant + b) mod 2 = 0 in
      let inp = input b in
      let doc =
        if variant = 0 then docs.(b) else Workload.document ~variant inp.Workload.scenario
      in
      write_line conn (request_line k inp doc ~progress:traced);
      Hashtbl.replace requests k
        {
          input = b;
          variant;
          traced;
          sent = now ();
          at = Array.make (response + 1) 0L;
          answer = None;
        };
      incr in_flight
    end
  in
  let respond conn k r j at =
    r.at.(response) <- at;
    (match Json.member "result" j with
    | Some res -> (
      match output_of_result res with
      | Some o -> r.answer <- Some o
      | None -> fail c "request %d: malformed result" k)
    | None ->
      fail c "request %d: error response %s" k
        (Option.fold ~none:"" ~some:Json.to_string (Json.member "error" j)));
    decr in_flight;
    incr completed;
    if !completed = rss_requests then rss_mb := status_mb ~pid "VmHWM";
    (* with one connection, nothing is in flight here *)
    Speed.tick speed;
    send_next conn
  in
  let handle conn line =
    let at = now () in
    match Json.parse_line line with
    | Error e -> fail c "unparseable frame: %s" (Format.asprintf "%a" Json.pp_error e)
    | Ok j -> (
      let k = Option.value ~default:(-1) (id_index j) in
      match (Hashtbl.find_opt requests k, Json.member "progress" j) with
      | Some r, Some p -> (
        match Option.bind (Json.member "event" p) Json.to_str with
        | Some ev -> Array.iteri (fun i e -> if e = ev then r.at.(i) <- at) events
        | None -> ())
      | Some r, None when r.at.(response) = 0L -> respond conn k r j at
      | _ -> fail c "unexpected frame %s" line)
  in
  Array.iter send_next conns;
  while !in_flight > 0 do
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    match Unix.select fds [] [] 60. with
    | [], _, _ -> failwith "daemon stalled: no frame in 60s"
    | ready, _, _ ->
      Array.iter
        (fun conn ->
          if List.mem conn.fd ready then List.iter (handle conn) (read_lines conn))
        conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  let sent = !next in
  Speed.stop speed;
  Speed.log_summary speed w.Workload.name;
  let stats = call conns.(0) (control "stats") in
  let peak_rss_mb =
    if !completed >= rss_requests then !rss_mb else status_mb ~pid "VmHWM"
  in
  Array.iter (fun conn -> Unix.close conn.fd) conns;
  stop daemon;
  let stat name =
    Option.value ~default:0
      (Option.bind
         (Option.bind (Json.member "result" stats) (Json.member name))
         Json.to_int)
  in
  if stat "coalesced" <> 0 then
    fail c "%d requests coalesced; every document is distinct" (stat "coalesced");
  if stat "solves" <> sent then
    fail c "%d solves for %d requests; every request must solve" (stat "solves") sent;
  let served = List.init sent (Hashtbl.find requests) in
  let latency r = ms_between r.sent r.at.(response) in
  let traced, untraced = List.partition (fun r -> r.traced) served in
  let at_speed (at, x) = Speed.scaled speed ~at x in
  let samples_ms =
    Array.of_list (List.map (fun r -> at_speed (r.at.(response), latency r)) untraced)
  in
  let layers =
    if not trace then []
    else
      let per_traced f =
        List.fold_left (fun acc r -> acc +. f r) 0. traced
        /. float_of_int (max 1 (List.length traced))
      in
      let stage i =
        per_traced (fun r ->
            let times = Array.append [| r.sent |] r.at in
            ms_between times.(i) times.(i + 1))
      in
      let traced_ms = per_traced latency in
      let untraced_ms = mean (List.map latency untraced) in
      let per name = float_of_int (stat name) /. float_of_int (max 1 sent) in
      List.map
        (fun name ->
          ( name,
            match name with
            | "server.solves" -> per "solves"
            | "server.coalesced" -> per "coalesced"
            | "server.errors" -> per "errors"
            | "trace.overhead_pct" when untraced_ms > 0. ->
              100. *. (traced_ms -. untraced_ms) /. untraced_ms
            | _ -> (
              match Array.find_index (String.equal name) stage_names with
              | Some i -> stage i
              | None -> 0.) ))
        Spec.layer_names
  in
  (* every variant of an input must be answered as its first request,
     variant 0, was; that answer must equal the in-process selection of the
     same scenario for every digest input, then every 16th input *)
  let answer b =
    let k = b * copies in
    if k < sent then (Hashtbl.find requests k).answer else None
  in
  List.iter
    (fun r ->
      match (r.answer, answer r.input) with
      | Some a, Some f
        when not
               (Select.answer_equal
                  (a.Select.selected, a.Select.objective)
                  (f.Select.selected, f.Select.objective)) ->
        fail c "input %d: variant %d answered differently" r.input r.variant
      | _ -> ())
    served;
  let check b =
    if b >= digest_inputs && b mod 16 <> 0 then None
    else
      match (answer b, Select.run (input b)) with
      | None, _ -> None
      | Some a, r ->
        let o = Select.to_output r in
        if not (Select.output_equal a o) then
          fail c "input %d: the daemon's selection differs from in process" b;
        if b < digest_inputs then Some o else None
      | exception e ->
        fail c "input %d: in-process check raised %s" b (Printexc.to_string e);
        None
  in
  let outputs = List.filter_map check (List.init (min n sent) Fun.id) in
  if sent < copies * min n digest_inputs then fail c "only %d requests served" sent;
  {
    samples_ms;
    attempted = sent;
    failed = c.failures;
    setup_s;
    reference_ms = Speed.median_ms speed;
    peak_rss_mb;
    digest = Select.digest outputs;
    layers;
    mean_i;
    mean_j;
    mean_candidates;
    gen_s;
  }
