open Relational
open Util

(* --- canonical keys ----------------------------------------------------- *)

(* Bytes fed to MD5 by key derivation, added once per digest. *)
let key_bytes_counter = Telemetry.Counter.make "cache.key_bytes"

module Key = struct
  (* A growable byte buffer: a key frame is rendered into one writer and
     hashed in place with [Digest.subbytes], so no part is copied into a
     frame and no frame into a string. *)
  type writer = {
    mutable bytes : Bytes.t;
    mutable len : int;
  }

  let writer size = { bytes = Bytes.create (max size 16); len = 0 }

  (* Each domain keeps one writer for the large frames, so a key does not
     allocate and regrow its frame. It is taken while in use: a nested or
     concurrent caller gets a fresh one. *)
  let scratch = Domain.DLS.new_key (fun () -> ref (Some (writer 65536)))

  let with_scratch f =
    let slot = Domain.DLS.get scratch in
    let w = match !slot with Some w -> w | None -> writer 65536 in
    slot := None;
    w.len <- 0;
    Fun.protect ~finally:(fun () -> slot := Some w) (fun () -> f w)

  let length w = w.len

  let contents w = Bytes.sub_string w.bytes 0 w.len

  (* Room for [n] more bytes. *)
  let reserve w n =
    let need = w.len + n in
    if need > Bytes.length w.bytes then begin
      let bytes = Bytes.create (max need (2 * Bytes.length w.bytes)) in
      Bytes.blit w.bytes 0 bytes 0 w.len;
      w.bytes <- bytes
    end

  let add_char w c =
    if w.len >= Bytes.length w.bytes then reserve w 1;
    Bytes.unsafe_set w.bytes w.len c;
    w.len <- w.len + 1

  let add_string w s =
    let n = String.length s in
    reserve w n;
    Bytes.unsafe_blit_string s 0 w.bytes w.len n;
    w.len <- w.len + n

  let add_copy w start stop =
    let n = stop - start in
    reserve w n;
    Bytes.blit w.bytes start w.bytes w.len n;
    w.len <- w.len + n

  (* Percent-encode everything outside [A-Za-z0-9_.~-] so renderings can be
     joined with spaces/commas unambiguously. *)
  let plain = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '~' | '-' -> true
    | _ -> false

  (* Key rendering is the cost of a cache hit, so the writers below are
     closure-free loops over a lookup table. *)
  let plain_table =
    String.init 256 (fun i -> if plain (Char.chr i) then '1' else '0')

  let is_plain c = String.unsafe_get plain_table (Char.code c) = '1'

  let rec all_plain s i n =
    i >= n || (is_plain (String.unsafe_get s i) && all_plain s (i + 1) n)

  let hex_digits = "0123456789ABCDEF"

  (* Copies [s] from [i] to [bytes] at [base + i] while it is plain, and
     returns where it stopped. *)
  let rec copy_plain bytes base s i n =
    if i >= n then n
    else
      let c = String.unsafe_get s i in
      if is_plain c then begin
        Bytes.unsafe_set bytes (base + i) c;
        copy_plain bytes base s (i + 1) n
      end
      else i

  let add_enc w s =
    let n = String.length s in
    reserve w n;
    let plain = copy_plain w.bytes w.len s 0 n in
    w.len <- w.len + plain;
    for i = plain to n - 1 do
      let c = String.unsafe_get s i in
      if is_plain c then add_char w c
      else begin
        add_char w '%';
        add_char w hex_digits.[Char.code c lsr 4];
        add_char w hex_digits.[Char.code c land 15]
      end
    done

  let enc s =
    if all_plain s 0 (String.length s) then s
    else begin
      let w = writer 16 in
      add_enc w s;
      contents w
    end

  (* [string_of_int], digit by digit: [n <= 0] here, so [min_int] needs no
     negation. *)
  let rec add_nonpos w n =
    if n <= -10 then add_nonpos w (n / 10);
    add_char w (Char.unsafe_chr (Char.code '0' - (n mod 10)))

  let add_int w n =
    if n < 0 then begin
      add_char w '-';
      add_nonpos w n
    end
    else add_nonpos w (-n)

  let add_value w = function
    | Value.Const s ->
      add_char w 'C';
      add_enc w s
    | Value.Null n ->
      add_char w 'N';
      add_int w n

  let add_values w values =
    for i = 0 to Array.length values - 1 do
      add_char w ' ';
      add_value w (Array.unsafe_get values i)
    done

  let add_tuple w (t : Tuple.t) =
    add_char w 'R';
    add_enc w t.Tuple.rel;
    add_values w t.Tuple.values

  (* [Instance.tuples] order: relations ascending, each relation's tuples
     in descending set order, the relation name encoded once. *)
  let add_instance w inst =
    let first = ref true in
    List.iter
      (fun rel ->
        let head = "R" ^ enc rel in
        List.iter
          (fun (t : Tuple.t) ->
            if !first then first := false else add_char w ',';
            add_string w head;
            add_values w t.Tuple.values)
          (Tuple.Set.fold List.cons (Instance.tuples_of inst rel) []))
      (Instance.relations inst)

  let add_frac w f =
    add_int w (Frac.num f);
    add_char w '/';
    add_int w (Frac.den f)

  let add_string_part w p =
    add_int w (String.length p);
    add_char w ':';
    add_string w p

  (* The part's bytes move up by the width of its [<len>:] header, which is
     written where they began. *)
  let close_part w start =
    let n = w.len - start in
    let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
    let digits = width n in
    reserve w (digits + 1);
    Bytes.blit w.bytes start w.bytes (start + digits + 1) n;
    let rec put i n =
      Bytes.unsafe_set w.bytes i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
      if n >= 10 then put (i - 1) (n / 10)
    in
    put (start + digits - 1) n;
    Bytes.unsafe_set w.bytes (start + digits) ':';
    w.len <- w.len + digits + 1

  let md5_hex w ~from =
    Digest.to_hex (Digest.subbytes w.bytes from (w.len - from))

  let digest_frame w =
    if Telemetry.enabled () then Telemetry.Counter.add key_bytes_counter w.len;
    md5_hex w ~from:0

  let digest parts =
    let w = writer 256 in
    List.iter (add_string_part w) parts;
    digest_frame w

  let tgd t = enc (Logic.Tgd.to_string t)

  let semantics = function
    | Cover.Corroborated -> "corroborated"
    | Cover.Strict -> "strict"
    | Cover.Generous -> "generous"
end

(* --- cache structure ---------------------------------------------------- *)

type payload =
  | Stats of Cover.tgd_stats  (* stored with [index = 0] *)
  | Selection of bool array
  | Chase_triggers of Chase.Trigger.t list
  | Problem_key of string

(* Completed entries sit in a circular doubly-linked list through a
   sentinel: most recent after the sentinel, eviction victim before it.
   In-flight entries are only in the table, so the LRU bound can never
   drop a computation someone is waiting on. *)
type node = {
  nkey : string;
  payload : payload;
  mutable prev : node;
  mutable next : node;
}

type slot =
  | Pending
  | Ready of node

type stats = {
  hits : int;
  misses : int;
  evictions : int;
}

type t = {
  cap : int;
  table : (string, slot) Hashtbl.t;
  sentinel : node;
  mutable len : int;  (* completed entries, = DLL length *)
  mutex : Mutex.t;
  cond : Condition.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let hits_counter = Telemetry.Counter.make "cache.hits"

let misses_counter = Telemetry.Counter.make "cache.misses"

let evictions_counter = Telemetry.Counter.make "cache.evictions"

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front t n =
  let h = t.sentinel in
  n.next <- h.next;
  n.prev <- h;
  h.next.prev <- n;
  h.next <- n

let create ?(capacity = 16384) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  let rec sentinel =
    { nkey = ""; payload = Selection [||]; prev = sentinel; next = sentinel }
  in
  {
    cap = capacity;
    table = Hashtbl.create 256;
    sentinel;
    len = 0;
    mutex = Mutex.create ();
    cond = Condition.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.cap

let stats t =
  Mutex.lock t.mutex;
  let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
  Mutex.unlock t.mutex;
  s

let of_spec = function
  | "" -> Ok None
  | "mem" -> Ok (Some (create ()))
  | spec ->
    Error
      (Printf.sprintf
         "unknown cache spelling %S (expected \"mem\", or empty for no cache)"
         spec)

let default =
  let cache =
    lazy
      (match Sys.getenv_opt "CACHE_DIR" with
      | None -> Ok None
      | Some spec -> of_spec spec)
  in
  fun () -> Lazy.force cache

(* --- single-flight lookup ----------------------------------------------- *)

let count_hit t =
  t.hits <- t.hits + 1;
  Telemetry.Counter.incr hits_counter

let count_miss t =
  t.misses <- t.misses + 1;
  Telemetry.Counter.incr misses_counter

let evict_lru t =
  let victim = t.sentinel.prev in
  if victim != t.sentinel then begin
    unlink victim;
    Hashtbl.remove t.table victim.nkey;
    t.len <- t.len - 1;
    t.evictions <- t.evictions + 1;
    Telemetry.Counter.incr evictions_counter
  end

let lookup t key compute =
  Mutex.lock t.mutex;
  (* [counted]: this call already booked its hit (while waiting on an
     in-flight computation); never book a second one. *)
  let counted = ref false in
  let produce () =
    (* lock not held: the chase/solve behind [compute] is the expensive
       part and must not serialize other keys *)
    match compute () with
    | payload ->
      Mutex.lock t.mutex;
      count_miss t;
      let rec node = { nkey = key; payload; prev = node; next = node } in
      Hashtbl.replace t.table key (Ready node);
      push_front t node;
      t.len <- t.len + 1;
      while t.len > t.cap do
        evict_lru t
      done;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      payload
    | exception e ->
      Mutex.lock t.mutex;
      Hashtbl.remove t.table key;
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex;
      raise e
  in
  let rec await () =
    match Hashtbl.find_opt t.table key with
    | Some (Ready node) ->
      if not !counted then count_hit t;
      unlink node;
      push_front t node;
      let payload = node.payload in
      Mutex.unlock t.mutex;
      payload
    | Some Pending ->
      if not !counted then begin
        count_hit t;
        counted := true
      end;
      Condition.wait t.cond t.mutex;
      await ()
    | None ->
      Hashtbl.replace t.table key Pending;
      Mutex.unlock t.mutex;
      produce ()
  in
  await ()

(* --- typed entry points ------------------------------------------------- *)

(* A problem build needs both keys and, on a fully warm build, key
   derivation is a large share of its cost: one writer holds both frames.
   The frame ["src"; source] is hashed first; the frame
   ["data"; source_key; j] is written after it and hashed from where it
   starts, so the source's bytes are hashed once. *)
let example_keys ~source ~j =
  Telemetry.with_span "cache.key" (fun () ->
      Key.with_scratch @@ fun w ->
      Key.add_string_part w "src";
      let start = Key.length w in
      Key.add_instance w source;
      Key.close_part w start;
      let source_key = Key.md5_hex w ~from:0 in
      let data = Key.length w in
      Key.add_string_part w "data";
      Key.add_string_part w source_key;
      let start = Key.length w in
      Key.add_instance w j;
      Key.close_part w start;
      if Telemetry.enabled () then
        Telemetry.Counter.add key_bytes_counter (Key.length w);
      (source_key, Key.md5_hex w ~from:data))

(* The chase depends on (source, tgd) only — not on the target instance —
   so a sweep over noise levels that perturb only [J] reuses every chase
   from the neighbouring level. *)
let chase t ~source_key tgd compute =
  let key = Key.digest [ "chase"; Key.tgd tgd; source_key ] in
  let payload =
    lookup t key (fun () -> Chase_triggers (compute ()))
  in
  match payload with
  | Chase_triggers r -> r
  | _ -> assert false

(* the core flag joins the key only when set, so uncored keys are the bytes
   they were before the flag existed, while cored and uncored stats can
   never collide *)
let stats_key ?(semantics = Cover.Corroborated) ?(core = false) ~data_key tgd =
  Key.digest
    (("stats" :: Key.semantics semantics :: (if core then [ "core" ] else []))
    @ [ Key.tgd tgd; data_key ])

let tgd_stats t ~key ~index compute =
  let payload =
    lookup t key (fun () -> Stats { (compute ()) with Cover.index = 0 })
  in
  match payload with
  | Stats s -> { s with Cover.index }
  | _ -> assert false

let problem_key t ~build compute =
  let key = Key.digest ("build" :: build) in
  match lookup t key (fun () -> Problem_key (compute ())) with
  | Problem_key k -> k
  | _ -> assert false

let selection t ~solver ~seed ~problem_key compute =
  let key =
    Key.digest
      [
        "sel";
        solver;
        (match seed with None -> "-" | Some s -> string_of_int s);
        problem_key;
      ]
  in
  let payload =
    lookup t key (fun () -> Selection (Array.copy (compute ())))
  in
  match payload with
  | Selection sel -> Array.copy sel
  | _ -> assert false
