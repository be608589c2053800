(* The NDJSON-RPC event loop.

   One dispatcher, many workers: this module's functions all run on the
   caller's thread except [send], which pool workers invoke through
   Scheduler jobs — hence the per-connection write mutex and the [alive]
   flag it guards (a worker must never write to a file descriptor the
   dispatcher has already closed and the OS may have reused). *)

type config = {
  endpoint : [ `Unix_socket of string | `Tcp of string * int ];
  jobs : int;
  queue : int;
  deadline_ms : float option;
}

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  wlock : Mutex.t;
  mutable alive : bool;
}

(* --- connection writer (worker-safe) ------------------------------------ *)

let rec write_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* the peer is slow; block this worker until the socket drains *)
      (try ignore (Unix.select [] [ fd ] [] 1.0) with
      | Unix.Unix_error (Unix.EINTR, _, _) -> ());
      write_all fd bytes off len

let send conn line =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if conn.alive then
        let payload = Bytes.of_string (line ^ "\n") in
        try write_all conn.fd payload 0 (Bytes.length payload) with
        | Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _)
          ->
          (* peer went away mid-reply; drop the rest of this conn's output *)
          conn.alive <- false)

(* --- listener ----------------------------------------------------------- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let listen_on = function
  | `Unix_socket path ->
    (match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK -> Unix.unlink path (* stale socket from a previous run *)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | `Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
    Unix.listen fd 64;
    fd

(* --- request admission -------------------------------------------------- *)

let overloaded id =
  Protocol.Error
    {
      id;
      kind = Protocol.Overloaded;
      message = "admission queue full; retry";
    }

let shutting_down id =
  Protocol.Error
    {
      id;
      kind = Protocol.Shutting_down;
      message = "server is draining; no new work accepted";
    }

type state = {
  engine : Engine.t;
  pool : Parallel.Pool.t;
  batcher : Scheduler.job Batcher.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  stop : bool Atomic.t;
  config : config;
}

let admit st conn (req : Protocol.request) ~key (p : Protocol.solve_params) =
  if Atomic.get st.stop then send conn (Protocol.render_response (shutting_down req.Protocol.id))
  else begin
    let deadline_at_ns =
      match (p.Protocol.deadline_ms, st.config.deadline_ms) with
      | None, None -> None
      | d, default ->
        let ms = Option.value d ~default:(Option.get default) in
        Some
          (Int64.add (Util.Timer.now_ns ())
             (Int64.of_float (ms *. 1_000_000.)))
    in
    let job =
      {
        Scheduler.key;
        request = req;
        send = send conn;
        deadline_at_ns;
      }
    in
    if Batcher.try_add st.batcher job then begin
      if p.Protocol.progress then
        send conn (Protocol.render_progress ~id:req.Protocol.id ~event:"queued" ())
    end
    else send conn (Protocol.render_response (overloaded req.Protocol.id))
  end

let process_line st conn line =
  if String.trim line <> "" then
    match Protocol.parse_request line with
    | Error resp -> send conn (Protocol.render_response resp)
    | Ok req -> (
      match req.Protocol.call with
      | Protocol.Solve p -> admit st conn req ~key:(Protocol.solve_key p) p
      | Protocol.Compose p ->
        admit st conn req ~key:(Protocol.solve_key ~meth:"compose" p) p
      | Protocol.Stats ->
        let extra =
          [
            ("queue", Util.Json.Num (float_of_int (Batcher.length st.batcher)));
            ( "connections",
              Util.Json.Num (float_of_int (Hashtbl.length st.conns)) );
            ("jobs", Util.Json.Num (float_of_int (Parallel.Pool.jobs st.pool)));
          ]
        in
        send conn
          (Protocol.render_response
             (Protocol.Result
                {
                  id = req.Protocol.id;
                  body = Engine.stats_body st.engine ~extra;
                }))
      | Protocol.Ping ->
        send conn (Protocol.render_response (Engine.handle st.engine req))
      | Protocol.Shutdown ->
        send conn (Protocol.render_response (Engine.handle st.engine req));
        Atomic.set st.stop true)

(* --- reading ------------------------------------------------------------ *)

let close_conn st conn =
  Mutex.lock conn.wlock;
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  Hashtbl.remove st.conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* Splits off every complete frame in the connection buffer, leaving the
   trailing partial line (if any) buffered. *)
let drain_frames st conn =
  let data = Buffer.contents conn.inbuf in
  let n = String.length data in
  let start = ref 0 in
  (try
     while !start < n do
       match String.index_from data !start '\n' with
       | nl ->
         process_line st conn (String.sub data !start (nl - !start));
         start := nl + 1
       | exception Not_found -> raise Exit
     done
   with Exit -> ());
  Buffer.clear conn.inbuf;
  Buffer.add_substring conn.inbuf data !start (n - !start)

let read_conn st conn =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn st conn
    | n ->
      Buffer.add_subbytes conn.inbuf chunk 0 n;
      loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn st conn
  in
  loop ();
  if Hashtbl.mem st.conns conn.fd then drain_frames st conn

let accept_loop st listen_fd =
  let rec loop () =
    match Unix.accept ~cloexec:true listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Hashtbl.replace st.conns fd
        { fd; inbuf = Buffer.create 256; wlock = Mutex.create (); alive = true };
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
  in
  loop ()

(* --- main loop ---------------------------------------------------------- *)

let install_signals stop =
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  List.iter
    (fun signal ->
      try Sys.set_signal signal request_stop
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* Max calls drained into one scheduler round. *)
let batch = 64

let run_pending st =
  match Batcher.drain ~max:batch st.batcher with
  | [] -> ()
  | jobs -> Scheduler.run_batch st.engine ~pool:st.pool jobs

let serve ?cache ?(stop = Atomic.make false) ?on_ready config =
  if config.jobs < 1 then invalid_arg "Daemon.serve: jobs < 1";
  Scheduler.install_tap ();
  install_signals stop;
  let engine = Engine.create ?cache () in
  let pool = Parallel.Pool.create ~jobs:config.jobs () in
  let st =
    {
      engine;
      pool;
      batcher = Batcher.create ~capacity:config.queue;
      conns = Hashtbl.create 16;
      stop;
      config;
    }
  in
  let listen_fd = listen_on config.endpoint in
  Unix.set_nonblock listen_fd;
  Option.iter (fun f -> f (Unix.getsockname listen_fd)) on_ready;
  while not (Atomic.get stop) do
    let timeout = if Batcher.length st.batcher > 0 then 0. else 0.2 in
    let fds = listen_fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) st.conns [] in
    (match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if fd = listen_fd then accept_loop st listen_fd
          else
            match Hashtbl.find_opt st.conns fd with
            | Some conn -> read_conn st conn
            | None -> ())
        readable);
    run_pending st
  done;
  (* graceful drain: answer everything already admitted, then tear down *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  while Batcher.length st.batcher > 0 do
    run_pending st
  done;
  let open_conns = Hashtbl.fold (fun _ conn acc -> conn :: acc) st.conns [] in
  List.iter (close_conn st) open_conns;
  (match config.endpoint with
  | `Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | `Tcp _ -> ());
  Cache.sync (Engine.cache engine);
  Parallel.Pool.shutdown pool
