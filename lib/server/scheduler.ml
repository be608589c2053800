(* Batch fan-out.

   Progress routing: Telemetry's span tap fires on the domain that closes
   the span, and one domain runs one request at a time, so a domain-local
   emitter, set around the engine call, attributes each close to the
   request that domain is running. *)

type job = {
  request : Protocol.request;
  send : string -> unit;
  deadline_at_ns : int64 option;
}

let emitter : (string -> int64 -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let tap ~domain:_ ~name ~dur_ns =
  match Domain.DLS.get emitter with
  | Some emit -> emit name dur_ns
  | None -> ()

let install_tap () = Telemetry.set_span_tap (Some tap)

let wants_progress job =
  match job.request.Protocol.call with
  | Protocol.Solve p | Protocol.Compose p -> p.Protocol.progress
  | _ -> false

let run_job engine job =
  let id = job.request.Protocol.id in
  let progress ~event ?name ?dur_ns () =
    job.send (Protocol.render_progress ~id ~event ?name ?dur_ns ())
  in
  if wants_progress job then
    Domain.DLS.set emitter
      (Some (fun name dur_ns -> progress ~event:"span" ~name ~dur_ns ()));
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set emitter None)
    (fun () -> Engine.handle engine ~progress job.request)

let run_batch engine ~pool jobs =
  let now = Util.Timer.now_ns () in
  let expired, live =
    List.partition
      (fun job ->
        match job.deadline_at_ns with
        | Some d -> Int64.compare d now < 0
        | None -> false)
      jobs
  in
  List.iter
    (fun job ->
      job.send
        (Protocol.render_response
           (Protocol.Error
              {
                id = job.request.Protocol.id;
                kind = Protocol.Deadline_exceeded;
                message = "deadline passed while queued";
              })))
    expired;
  (* each response lands at its job's index, so replies go out in arrival
     order *)
  let live = Array.of_list live in
  let responses =
    Parallel.Pool.parallel_map pool
      (fun job -> Protocol.render_response (run_job engine job))
      live
  in
  Array.iteri (fun i line -> live.(i).send line) responses
