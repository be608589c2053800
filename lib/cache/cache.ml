open Relational
open Util

(* --- canonical keys ----------------------------------------------------- *)

(* Bytes fed to MD5 by key derivation, added once per digest. *)
let key_bytes_counter = Telemetry.Counter.make "cache.key_bytes"

module Key = struct
  (* Percent-encode everything outside [A-Za-z0-9_.~-] so renderings can be
     joined with spaces/commas and split back unambiguously (the disk format
     reuses this). *)
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

  let add_enc buf s =
    let n = String.length s in
    if all_plain s 0 n then Buffer.add_string buf s
    else
      for i = 0 to n - 1 do
        let c = String.unsafe_get s i in
        if is_plain c then Buffer.add_char buf c
        else begin
          Buffer.add_char buf '%';
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 15]
        end
      done

  let dec s =
    let n = String.length s in
    let buf = Buffer.create n in
    let hex c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
      | _ -> None
    in
    let rec go i =
      if i >= n then Some (Buffer.contents buf)
      else if s.[i] <> '%' then begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
      else if i + 2 >= n then None
      else
        match hex s.[i + 1], hex s.[i + 2] with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ -> None
    in
    go 0

  (* [string_of_int], digit by digit: [n <= 0] here, so [min_int] needs no
     negation. *)
  let rec add_nonpos buf n =
    if n <= -10 then add_nonpos buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

  let add_int buf n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_nonpos buf n
    end
    else add_nonpos buf (-n)

  let add_value buf = function
    | Value.Const s ->
      Buffer.add_char buf 'C';
      add_enc buf s
    | Value.Null n ->
      Buffer.add_char buf 'N';
      add_int buf n

  let add_tuple buf (t : Tuple.t) =
    Buffer.add_char buf 'R';
    add_enc buf t.Tuple.rel;
    let values = t.Tuple.values in
    for i = 0 to Array.length values - 1 do
      Buffer.add_char buf ' ';
      add_value buf (Array.unsafe_get values i)
    done

  (* [Instance.tuples] order: relations ascending, each relation's tuples
     in descending set order. *)
  let add_instance buf inst =
    let first = ref true in
    List.iter
      (fun rel ->
        Seq.iter
          (fun t ->
            if !first then first := false else Buffer.add_char buf ',';
            add_tuple buf t)
          (Tuple.Set.to_rev_seq (Instance.tuples_of inst rel)))
      (Instance.relations inst)

  let add_frac buf f =
    add_int buf (Frac.num f);
    Buffer.add_char buf '/';
    add_int buf (Frac.den f)

  let add_string_part frame p =
    add_int frame (String.length p);
    Buffer.add_char frame ':';
    Buffer.add_string frame p

  let add_part frame part =
    add_int frame (Buffer.length part);
    Buffer.add_char frame ':';
    Buffer.add_buffer frame part

  let md5_hex frame = Digest.to_hex (Digest.string (Buffer.contents frame))

  let digest_frame frame =
    if Telemetry.enabled () then
      Telemetry.Counter.add key_bytes_counter (Buffer.length frame);
    md5_hex frame

  let digest parts =
    let frame = Buffer.create 256 in
    List.iter (add_string_part frame) parts;
    digest_frame frame

  let render size add x =
    let buf = Buffer.create size in
    add buf x;
    Buffer.contents buf

  let enc s =
    if all_plain s 0 (String.length s) then s else render 16 add_enc s

  let value v = render 16 add_value v

  let tuple t = render 64 add_tuple t

  let instance inst = render 4096 add_instance inst

  let tgd t = enc (Logic.Tgd.to_string t)

  let frac f = render 16 add_frac f

  let semantics = function
    | Cover.Corroborated -> "corroborated"
    | Cover.Strict -> "strict"
    | Cover.Generous -> "generous"
end

(* --- cache structure ---------------------------------------------------- *)

type payload =
  | Stats of Cover.tgd_stats  (* stored with [index = 0] *)
  | Selection of bool array
  | Chase_result of Chase.result
      (* memory-only tier: encodes to "" and never touches the disk *)

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
  dir_ : string option;
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

let rec mkdirs d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let create ?(capacity = 16384) ?dir () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  Option.iter mkdirs dir;
  let rec sentinel =
    { nkey = ""; payload = Selection [||]; prev = sentinel; next = sentinel }
  in
  {
    cap = capacity;
    dir_ = dir;
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

let dir t = t.dir_

let stats t =
  Mutex.lock t.mutex;
  let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
  Mutex.unlock t.mutex;
  s

let of_spec = function
  | "" -> None
  | "mem" -> Some (create ())
  | dir -> Some (create ~dir ())

let default =
  let cache =
    lazy
      (match Sys.getenv_opt "CACHE_DIR" with
      | None -> None
      | Some spec -> of_spec spec)
  in
  fun () -> Lazy.force cache

(* --- disk tier ---------------------------------------------------------- *)

let disk_path dir key = Filename.concat dir (key ^ ".cache")

let disk_read dir key decode =
  let path = disk_path dir key in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> decode text
    | exception Sys_error _ -> None

(* Write-to-temp then rename, so a reader never sees a torn file. Two
   processes racing on one key write the same content; any mishap is
   caught by decode-or-recompute on the next read. *)
let disk_write dir key text =
  let path = disk_path dir key in
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
    Sys.rename tmp path
  with Sys_error _ -> ()

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

let lookup t key ~encode ~decode compute =
  Mutex.lock t.mutex;
  (* [counted]: this call already booked its hit (while waiting on an
     in-flight computation); never book a second one. *)
  let counted = ref false in
  let finish ~miss payload =
    Mutex.lock t.mutex;
    if miss then count_miss t else if not !counted then count_hit t;
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
  in
  let produce () =
    (* lock not held: the chase/solve behind [compute] is the expensive
       part, and disk probes should not serialize other keys either *)
    match Option.bind t.dir_ (fun dir -> disk_read dir key decode) with
    | Some payload -> finish ~miss:false payload
    | None -> (
      match compute () with
      | payload ->
        (* an empty encoding marks a memory-only payload (chase tier) *)
        Option.iter
          (fun dir ->
            let text = encode payload in
            if text <> "" then disk_write dir key text)
          t.dir_;
        finish ~miss:true payload
      | exception e ->
        Mutex.lock t.mutex;
        Hashtbl.remove t.table key;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex;
        raise e)
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

(* --- payload codecs ----------------------------------------------------- *)

(* Line-oriented, like the serialize format: a kind tag, then one line per
   component. Tuples reuse the space-separated [Key] token rendering, which
   decodes exactly. Any malformed input decodes to [None] and is treated as
   a miss. *)

let tuple_of_tokens = function
  | [] -> None
  | rel :: fields ->
    if String.length rel < 1 || rel.[0] <> 'R' then None
    else
      Option.bind (Key.dec (String.sub rel 1 (String.length rel - 1)))
        (fun rel ->
          let field tok =
            if tok = "" then None
            else
              let rest = String.sub tok 1 (String.length tok - 1) in
              match tok.[0] with
              | 'C' -> Option.map (fun s -> Value.Const s) (Key.dec rest)
              | 'N' -> Option.map (fun n -> Value.Null n) (int_of_string_opt rest)
              | _ -> None
          in
          let rec all acc = function
            | [] -> Some (List.rev acc)
            | tok :: rest -> (
              match field tok with
              | None -> None
              | Some v -> all (v :: acc) rest)
          in
          Option.map (fun values -> Tuple.make rel values) (all [] fields))

let encode_stats (s : Cover.tgd_stats) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "tgd-stats\n";
  Buffer.add_string buf (Printf.sprintf "produced %d\n" s.Cover.produced);
  Buffer.add_string buf (Printf.sprintf "size %d\n" s.Cover.size);
  Tuple.Map.iter
    (fun t d ->
      Buffer.add_string buf
        (Printf.sprintf "cover %s %d %d\n" (Key.tuple t) (Frac.num d)
           (Frac.den d)))
    s.Cover.covers;
  List.iter
    (fun t -> Buffer.add_string buf (Printf.sprintf "error %s\n" (Key.tuple t)))
    s.Cover.error_tuples;
  Buffer.contents buf

(* Rebuilds the stats around the caller's [tgd]: the digest already pins the
   exact tgd text, so storing it again would only add a parser. *)
let decode_stats ~tgd text =
  let ( let* ) = Option.bind in
  let rec take_rev n l acc =
    if n <= 0 then Some (acc, l)
    else match l with [] -> None | x :: rest -> take_rev (n - 1) rest (x :: acc)
  in
  let int_field name line =
    match String.split_on_char ' ' line with
    | [ tag; v ] when tag = name -> int_of_string_opt v
    | _ -> None
  in
  match String.split_on_char '\n' text with
  | "tgd-stats" :: produced_l :: size_l :: rest ->
    let* produced = int_field "produced" produced_l in
    let* size = int_field "size" size_l in
    let rec go covers errors = function
      | [] | [ "" ] ->
        Some
          {
            Cover.index = 0;
            tgd;
            covers;
            error_tuples = List.rev errors;
            produced;
            size;
          }
      | line :: rest -> (
        match String.split_on_char ' ' line with
        | "cover" :: tokens ->
          let* (frac_toks, tuple_toks) = take_rev 2 (List.rev tokens) [] in
          let* t = tuple_of_tokens (List.rev tuple_toks) in
          let* num, den =
            match frac_toks with
            | [ a; b ] -> (
              match int_of_string_opt a, int_of_string_opt b with
              | Some a, Some b when b > 0 -> Some (a, b)
              | _ -> None)
            | _ -> None
          in
          go (Tuple.Map.add t (Frac.make num den) covers) errors rest
        | "error" :: tokens ->
          let* t = tuple_of_tokens tokens in
          go covers (t :: errors) rest
        | _ -> None)
    in
    go Tuple.Map.empty [] rest
  | _ -> None

let encode_selection sel =
  let bits =
    String.init (Array.length sel) (fun i -> if sel.(i) then '1' else '0')
  in
  "selection\n" ^ bits

let decode_selection text =
  match String.split_on_char '\n' text with
  | [ "selection"; bits ] ->
    if String.for_all (function '0' | '1' -> true | _ -> false) bits then
      Some (Array.init (String.length bits) (fun i -> bits.[i] = '1'))
    else None
  | _ -> None

(* --- disk re-sync ------------------------------------------------------- *)

let encode_payload = function
  | Stats s -> encode_stats s
  | Selection sel -> encode_selection sel
  | Chase_result _ -> ""

(* Snapshot the completed entries under the lock, write outside it: the
   writes are pure repair work and must not serialize concurrent lookups. *)
let sync t =
  match t.dir_ with
  | None -> ()
  | Some dir ->
    let entries =
      Mutex.lock t.mutex;
      let rec walk acc n =
        if n == t.sentinel then acc
        else walk ((n.nkey, n.payload) :: acc) n.next
      in
      let entries = walk [] t.sentinel.next in
      Mutex.unlock t.mutex;
      entries
    in
    List.iter
      (fun (key, payload) ->
        if not (Sys.file_exists (disk_path dir key)) then
          let text = encode_payload payload in
          if text <> "" then disk_write dir key text)
      entries

(* --- typed entry points ------------------------------------------------- *)

(* A problem build needs both keys and, on a fully warm build, key
   derivation is its dominant cost: each instance is rendered once, the
   source framed into both digests, and one frame buffer sized for the
   larger digest serves both. *)
let example_keys ~source ~j =
  Telemetry.with_span "cache.key" (fun () ->
      let src = Buffer.create 4096 in
      Key.add_instance src source;
      let tgt = Buffer.create (Buffer.length src + 16) in
      Key.add_instance tgt j;
      let frame = Buffer.create (Buffer.length src + Buffer.length tgt + 48) in
      Key.add_string_part frame "src";
      Key.add_part frame src;
      let src_bytes = Buffer.length frame in
      let source_key = Key.md5_hex frame in
      Buffer.clear frame;
      Key.add_string_part frame "data";
      Key.add_part frame src;
      Key.add_part frame tgt;
      if Telemetry.enabled () then
        Telemetry.Counter.add key_bytes_counter
          (src_bytes + Buffer.length frame);
      (source_key, Key.md5_hex frame))

(* The chase depends on (source, tgd) only — not on the target instance —
   so a sweep over noise levels that perturb only [J] reuses every chase
   from the neighbouring level. Memory-only: a chase result is cheap to
   hold and expensive to serialize, and the derived [tgd_stats] already
   carry the durable tier. *)
let chase t ~source_key tgd compute =
  let key = Key.digest [ "chase"; Key.tgd tgd; source_key ] in
  let payload =
    lookup t key
      ~encode:(fun _ -> "")
      ~decode:(fun _ -> None)
      (fun () -> Chase_result (compute ()))
  in
  match payload with
  | Chase_result r -> r
  | _ -> assert false

let tgd_stats t ?(semantics = Cover.Corroborated) ?(core = false) ~data_key
    ~index tgd compute =
  (* the core flag joins the key only when set, so uncored entries keep
     their historical keys (warm disk tiers stay valid) while cored and
     uncored stats can never collide *)
  let key =
    Key.digest
      (("stats" :: Key.semantics semantics :: (if core then [ "core" ] else []))
      @ [ Key.tgd tgd; data_key ])
  in
  let payload =
    lookup t key
      ~encode:(function Stats s -> encode_stats s | _ -> "")
      ~decode:(fun text -> Option.map (fun s -> Stats s) (decode_stats ~tgd text))
      (fun () -> Stats { (compute ()) with Cover.index = 0 })
  in
  match payload with
  | Stats s -> { s with Cover.index }
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
    lookup t key
      ~encode:(function Selection s -> encode_selection s | _ -> "")
      ~decode:(fun text ->
        Option.map (fun s -> Selection s) (decode_selection text))
      (fun () -> Selection (Array.copy (compute ())))
  in
  match payload with
  | Selection sel -> Array.copy sel
  | _ -> assert false
