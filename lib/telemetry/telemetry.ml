(* Process-global observability state. The enabled flag and the counters
   are atomics (hot paths touch nothing else); the registries, the span
   aggregates and the buffered span tree are protected by [state_mutex];
   sink channels are written under [out_mutex] so concurrent domains never
   interleave half-lines. *)

let now_ns = Util.Timer.now_ns

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled b = Atomic.set enabled_flag b

let state_mutex = Mutex.create ()

let out_mutex = Mutex.create ()

let human_out : out_channel option ref = ref None

let jsonl_out : out_channel option ref = ref None

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- JSON lines ------------------------------------------------------- *)

(* A JSON string literal, quotes included. *)
let json_str s = Util.Json.(to_string (Str s))

let emit_jsonl line =
  locked out_mutex (fun () ->
      match !jsonl_out with
      | None -> ()
      | Some oc ->
        output_string oc line;
        output_char oc '\n')

(* --- metrics ----------------------------------------------------------- *)

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let make name =
    locked state_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { name; v = Atomic.make 0 } in
          Hashtbl.add registry name c;
          c)

  let incr c = if enabled () then Atomic.incr c.v

  let add c n = if enabled () && n > 0 then ignore (Atomic.fetch_and_add c.v n)

  let value c = Atomic.get c.v

  let name c = c.name
end

(* --- spans ------------------------------------------------------------- *)

type open_span = { sp_name : string; sp_start : int64; sp_depth : int }

(* Each domain nests its own spans; a worker-side span never closes a
   caller-side parent. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

type span_agg = { mutable sa_count : int; mutable sa_total_ns : int64 }

let span_aggs : (string, span_agg) Hashtbl.t = Hashtbl.create 32

type closed_span = {
  cs_name : string;
  cs_domain : int;
  cs_depth : int;
  cs_start : int64;
  cs_dur : int64;
}

(* Bounded sample of closed spans for the human tree; aggregates above stay
   complete when the buffer saturates. *)
let tree_cap = 4096

let tree : closed_span list ref = ref []

let tree_len = ref 0

let tree_dropped = ref 0

type span_tap = domain:int -> name:string -> dur_ns:int64 -> unit

let span_tap : span_tap option Atomic.t = Atomic.make None

let set_span_tap tap = Atomic.set span_tap tap

let close_span ~attrs (s : open_span) ~stop =
  let dur = Int64.sub stop s.sp_start in
  let domain = (Domain.self () :> int) in
  (match Atomic.get span_tap with
  | None -> ()
  | Some tap -> ( try tap ~domain ~name:s.sp_name ~dur_ns:dur with _ -> ()));
  locked state_mutex (fun () ->
      (match Hashtbl.find_opt span_aggs s.sp_name with
      | Some a ->
        a.sa_count <- a.sa_count + 1;
        a.sa_total_ns <- Int64.add a.sa_total_ns dur
      | None ->
        Hashtbl.add span_aggs s.sp_name { sa_count = 1; sa_total_ns = dur });
      if !tree_len < tree_cap then begin
        tree :=
          {
            cs_name = s.sp_name;
            cs_domain = domain;
            cs_depth = s.sp_depth;
            cs_start = s.sp_start;
            cs_dur = dur;
          }
          :: !tree;
        incr tree_len
      end
      else incr tree_dropped);
  if !jsonl_out <> None then begin
    let attrs_json =
      match attrs with
      | [] -> ""
      | attrs ->
        Printf.sprintf ",\"attrs\":{%s}"
          (String.concat ","
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "%s:%s" (json_str k) (json_str v))
                attrs))
    in
    emit_jsonl
      (Printf.sprintf
         "{\"type\":\"span\",\"name\":%s,\"domain\":%d,\"depth\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld%s}"
         (json_str s.sp_name) domain s.sp_depth s.sp_start dur attrs_json)
  end

let with_span ?(attrs = []) name f =
  if not (enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let depth = match !stack with [] -> 0 | s :: _ -> s.sp_depth + 1 in
    let s = { sp_name = name; sp_start = now_ns (); sp_depth = depth } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | top :: rest when top == s -> stack := rest
        | _ ->
          (* an inner span leaked past its scope; drop down to [s] *)
          let rec pop = function
            | top :: rest when top == s -> rest
            | _ :: rest -> pop rest
            | [] -> []
          in
          stack := pop !stack);
        close_span ~attrs s ~stop:(now_ns ()))
      f
  end

(* --- reading ----------------------------------------------------------- *)

let sorted_by_name pairs =
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

(* Caller holds [state_mutex]. *)
let counter_totals () =
  Hashtbl.fold
    (fun name c acc -> (name, Counter.value c) :: acc)
    Counter.registry []
  |> sorted_by_name

let counters () = locked state_mutex counter_totals

let span_counts () =
  locked state_mutex (fun () ->
      Hashtbl.fold (fun name a acc -> (name, a.sa_count) :: acc) span_aggs [])
  |> sorted_by_name

(* --- reporting --------------------------------------------------------- *)

let pp_dur ppf ns =
  let ns = Int64.to_float ns in
  if ns >= 1e9 then Format.fprintf ppf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf ppf "%8.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf ppf "%8.2f us" (ns /. 1e3)
  else Format.fprintf ppf "%8.0f ns" ns

let human_report oc =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let tree_rows, dropped, aggs, counter_rows =
    locked state_mutex (fun () ->
        ( List.rev !tree,
          !tree_dropped,
          Hashtbl.fold
            (fun name a acc -> (name, a.sa_count, a.sa_total_ns) :: acc)
            span_aggs []
          |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b),
          counter_totals () ))
  in
  Format.fprintf ppf "== telemetry ==@.";
  if tree_rows <> [] then begin
    Format.fprintf ppf "spans (start order per domain):@.";
    let rows =
      List.sort
        (fun a b ->
          match compare a.cs_domain b.cs_domain with
          | 0 -> Int64.compare a.cs_start b.cs_start
          | c -> c)
        tree_rows
    in
    List.iter
      (fun r ->
        let indent = String.make (2 * min 18 r.cs_depth) ' ' in
        Format.fprintf ppf "  [d%d] %s%-*s %a@." r.cs_domain indent
          (max 1 (40 - String.length indent))
          r.cs_name pp_dur r.cs_dur)
      rows;
    if dropped > 0 then
      Format.fprintf ppf "  ... %d more spans not sampled@." dropped
  end;
  if aggs <> [] then begin
    Format.fprintf ppf "span aggregates:@.";
    List.iter
      (fun (name, count, total) ->
        Format.fprintf ppf "  %-36s count %7d   total %a   mean %a@." name
          count pp_dur total pp_dur
          (Int64.div total (Int64.of_int (max 1 count))))
      aggs
  end;
  if counter_rows <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %d@." name v)
      counter_rows
  end;
  Format.pp_print_flush ppf ();
  output_string oc (Buffer.contents buf)

let jsonl_aggregates () =
  let lines =
    locked state_mutex (fun () ->
        let counters =
          counter_totals ()
          |> List.map (fun (name, v) ->
                 Printf.sprintf "{\"type\":\"counter\",\"name\":%s,\"value\":%d}"
                   (json_str name) v)
        in
        let spans =
          Hashtbl.fold
            (fun name a acc -> (name, a.sa_count, a.sa_total_ns) :: acc)
            span_aggs []
          |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
          |> List.map (fun (name, count, total) ->
                 Printf.sprintf
                   "{\"type\":\"span-agg\",\"name\":%s,\"count\":%d,\"total_ns\":%Ld}"
                   (json_str name) count total)
        in
        counters @ spans)
  in
  List.iter emit_jsonl lines

let set_human oc = locked out_mutex (fun () -> human_out := oc)

let set_jsonl oc = locked out_mutex (fun () -> jsonl_out := oc)

let flush () =
  (match !jsonl_out with None -> () | Some _ -> jsonl_aggregates ());
  locked out_mutex (fun () ->
      (match !human_out with None -> () | Some oc -> human_report oc; flush oc);
      match !jsonl_out with None -> () | Some oc -> Stdlib.flush oc)

let at_exit_registered = ref false

let flush_at_exit () =
  locked state_mutex (fun () ->
      if not !at_exit_registered then begin
        at_exit_registered := true;
        Stdlib.at_exit flush
      end)

let reset () =
  locked state_mutex (fun () ->
      Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.v 0)
        Counter.registry;
      Hashtbl.reset span_aggs;
      tree := [];
      tree_len := 0;
      tree_dropped := 0)

(* --- TELEMETRY environment hook ---------------------------------------- *)

(* Runs at program start in any binary that links an instrumented library,
   so `TELEMETRY=1 dune runtest` exercises every instrumented path with no
   code changes. *)
let () =
  match Sys.getenv_opt "TELEMETRY" with
  | None | Some "" | Some "0" -> ()
  | Some "1" | Some "on" -> set_enabled true
  | Some "human" ->
    set_human (Some stderr);
    set_enabled true;
    flush_at_exit ()
  | Some v when String.length v > 6 && String.sub v 0 6 = "jsonl:" ->
    let path = String.sub v 6 (String.length v - 6) in
    (match open_out path with
    | oc ->
      set_jsonl (Some oc);
      set_enabled true;
      flush_at_exit ()
    | exception Sys_error msg ->
      Printf.eprintf "TELEMETRY: cannot open %s: %s\n%!" path msg)
  | Some v ->
    Printf.eprintf
      "TELEMETRY: unknown value %S (expected 0, 1, on, human, jsonl:PATH)\n%!" v
