(* Spawn-once worker domains around a single locked queue of thunks. Each
   batch (one [parallel_map] call) tracks its own completion under its own
   mutex, so concurrent batches from different domains could share the pool;
   the queue mutex is only ever held for a push/pop. *)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

(* Marks pool workers so nested batch operations run inline instead of
   queueing sub-tasks their own worker would then deadlock waiting on. *)
let worker_key = Domain.DLS.new_key (fun () -> false)

let on_worker () = Domain.DLS.get worker_key

let default_jobs () =
  match Sys.getenv_opt "PARALLEL_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | Some _ | None ->
      invalid_arg
        (Printf.sprintf "PARALLEL_JOBS must be a positive integer, got %S" s))

let rec worker_loop pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue && not pool.closed do
    Condition.wait pool.nonempty pool.mutex
  done;
  if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* closed *)
  else begin
    let task = Queue.pop pool.queue in
    Mutex.unlock pool.mutex;
    task ();
    worker_loop pool
  end

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some j -> invalid_arg (Printf.sprintf "Parallel.Pool.create: jobs = %d" j)
  in
  let pool =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      closed = false;
    }
  in
  if jobs > 1 then
    pool.workers <-
      List.init jobs (fun _ ->
          Domain.spawn (fun () ->
              Domain.DLS.set worker_key true;
              worker_loop pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.closed then Mutex.unlock pool.mutex
  else begin
    pool.closed <- true;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let refuse_closed () =
  invalid_arg "Parallel.Pool: batch submitted to a shut-down pool"

(* Per-batch completion state. [error] keeps the failure from the
   lowest-index chunk; since chunks are contiguous and each chunk stops at
   its first failing element, that is exactly the exception a sequential
   left-to-right run would have raised. *)
type batch = {
  b_mutex : Mutex.t;
  b_finished : Condition.t;
  mutable b_pending : int;
  mutable b_error : (int * exn * Printexc.raw_backtrace) option;
}

(* Runs [run_one i] for all [i] in [0, n) on the pool, [chunk] indices per
   queued task. Blocks until the batch completes; re-raises the
   deterministically-first error, if any. *)
let run_batch pool ~n ~chunk run_one =
  let nchunks = (n + chunk - 1) / chunk in
  let b =
    {
      b_mutex = Mutex.create ();
      b_finished = Condition.create ();
      b_pending = nchunks;
      b_error = None;
    }
  in
  let chunk_task ci () =
    (* A recorded error from an earlier chunk makes this chunk's results
       unobservable (the batch will re-raise), so skip the work; a recorded
       error from a LATER chunk must not cancel us — an earlier chunk may
       still fail and must win the tie-break. *)
    let cancelled =
      Mutex.lock b.b_mutex;
      let c =
        match b.b_error with Some (cj, _, _) -> cj < ci | None -> false
      in
      Mutex.unlock b.b_mutex;
      c
    in
    (if not cancelled then
       try
         let hi = Stdlib.min n ((ci + 1) * chunk) in
         for i = ci * chunk to hi - 1 do
           run_one i
         done
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock b.b_mutex;
         (match b.b_error with
         | Some (cj, _, _) when cj <= ci -> ()
         | Some _ | None -> b.b_error <- Some (ci, exn, bt));
         Mutex.unlock b.b_mutex);
    Mutex.lock b.b_mutex;
    b.b_pending <- b.b_pending - 1;
    if b.b_pending = 0 then Condition.signal b.b_finished;
    Mutex.unlock b.b_mutex
  in
  (* checked again with the push: a shutdown may have raced the entry check *)
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    refuse_closed ()
  end;
  for ci = 0 to nchunks - 1 do
    Queue.add (chunk_task ci) pool.queue
  done;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  Mutex.lock b.b_mutex;
  while b.b_pending > 0 do
    Condition.wait b.b_finished b.b_mutex
  done;
  let error = b.b_error in
  Mutex.unlock b.b_mutex;
  match error with
  | None -> ()
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt

(* The sequential oracle path: strict left-to-right evaluation, so the
   first failing element raises — matching the parallel tie-break. *)
let sequential_map f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f xs.(0)) in
    for i = 1 to n - 1 do
      out.(i) <- f xs.(i)
    done;
    out
  end

(* Batches and tasks are counted here — before the inline/pooled split
   and per logical work item, never per chunk — so the totals are a pure
   function of the submitted work, identical for every pool size. *)
let batches_counter = Telemetry.Counter.make "pool.batches"

let tasks_counter = Telemetry.Counter.make "pool.tasks"

let parallel_map ?chunk pool f xs =
  Mutex.lock pool.mutex;
  let closed = pool.closed in
  Mutex.unlock pool.mutex;
  if closed then refuse_closed ();
  Telemetry.with_span "pool.batch" @@ fun () ->
  let n = Array.length xs in
  Telemetry.Counter.incr batches_counter;
  Telemetry.Counter.add tasks_counter n;
  (* A one-task batch gains nothing from a worker and, run on the caller,
     keeps its own nested batches parallel. *)
  if n <= 1 || pool.jobs <= 1 || on_worker () then sequential_map f xs
  else begin
    let chunk =
      match chunk with
      | Some c when c >= 1 -> c
      | Some c -> invalid_arg (Printf.sprintf "Parallel.Pool: chunk = %d" c)
      | None ->
        (* quarter shares keep workers busy when task durations vary *)
        Stdlib.max 1 ((n + (4 * pool.jobs) - 1) / (4 * pool.jobs))
    in
    let results = Array.make n None in
    run_batch pool ~n ~chunk (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map
      (function Some v -> v | None -> assert false (* batch completed *))
      results
  end

let parallel_map_list ?chunk pool f xs =
  Array.to_list (parallel_map ?chunk pool f (Array.of_list xs))
