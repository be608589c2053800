(* The evaluation cache: LRU bookkeeping, single-flight accounting, the
   accepted spellings, and — the contract everything else leans on —
   bit-identity of the cached pipeline with the uncached one, per registered
   solver. *)

open Core

(* --- helpers ------------------------------------------------------------ *)

let appendix_candidates = [ Fixtures.theta1; Fixtures.theta3 ]

let make_problem ?cache () =
  Problem.make ?cache ~source:Fixtures.instance_i ~j:Fixtures.instance_j
    appendix_candidates

(* A distinct selection key per index; the compute closure records calls. *)
let probe cache calls ~key =
  Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:key (fun () ->
      incr calls;
      [| true |])

let contains sub t =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length t && (String.sub t i n = sub || go (i + 1))
  in
  go 0

(* --- accounting and LRU ------------------------------------------------- *)

let test_hit_miss_accounting () =
  let cache = Cache.create () in
  let calls = ref 0 in
  for _ = 1 to 5 do
    ignore (probe cache calls ~key:"k1")
  done;
  let s = Cache.stats cache in
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "four hits" 4 s.Cache.hits;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions

let test_lru_eviction_order () =
  let cache = Cache.create ~capacity:2 () in
  let calls = ref 0 in
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k2");
  (* touch k1 so k2 becomes the least recently used *)
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k3");
  Alcotest.(check int) "one eviction" 1 (Cache.stats cache).Cache.evictions;
  let before = !calls in
  ignore (probe cache calls ~key:"k1");
  ignore (probe cache calls ~key:"k3");
  Alcotest.(check int) "k1 and k3 still cached" before !calls;
  ignore (probe cache calls ~key:"k2");
  Alcotest.(check int) "k2 was the victim" (before + 1) !calls

let test_single_flight_parallel () =
  (* 48 lookups of 6 distinct keys hammered from several domains: misses
     must equal the distinct keys and hits the rest, for any pool size —
     the jobs-invariance contract. *)
  let run jobs =
    let cache = Cache.create () in
    let calls = Atomic.make 0 in
    let task i =
      let key = Printf.sprintf "k%d" (i mod 6) in
      Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:key
        (fun () ->
          Atomic.incr calls;
          [| i mod 6 = 0 |])
    in
    let results =
      Parallel.Pool.with_pool ~jobs (fun pool ->
          Parallel.Pool.parallel_map pool task (Array.init 48 Fun.id))
    in
    Array.iteri
      (fun i sel ->
        Alcotest.(check bool)
          (Printf.sprintf "result %d correct under jobs=%d" i jobs)
          (i mod 6 = 0) sel.(0))
      results;
    (Cache.stats cache, Atomic.get calls)
  in
  List.iter
    (fun jobs ->
      let s, calls = run jobs in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: misses = distinct keys" jobs)
        6 s.Cache.misses;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: one computation per distinct key" jobs)
        6 calls;
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d: hits = the rest" jobs)
        42 s.Cache.hits)
    [ 1; 4 ]

(* --- problem construction through the cache ----------------------------- *)

let test_problem_bit_identity () =
  let plain = make_problem () in
  let cache = Cache.create () in
  let cold = make_problem ~cache () in
  let warm = make_problem ~cache () in
  let key = Problem.digest plain in
  Alcotest.(check string) "cold digest" key (Problem.digest cold);
  Alcotest.(check string) "warm digest" key (Problem.digest warm);
  Alcotest.(check string) "warm key" key (Problem.key warm);
  let s = Cache.stats cache in
  (* cold build: one stats analysis plus one chase-tier entry per
     candidate, and the problem key *)
  Alcotest.(check int)
    "one analysis + one chase per candidate + the problem key"
    ((2 * List.length appendix_candidates) + 1)
    s.Cache.misses;
  Alcotest.(check int)
    "warm rebuild all hits" (List.length appendix_candidates + 1)
    s.Cache.hits

let test_reindexing () =
  (* One cached analysis serves a candidate at any list position. *)
  let cache = Cache.create () in
  ignore (make_problem ~cache ());
  let swapped =
    Problem.make ~cache ~source:Fixtures.instance_i ~j:Fixtures.instance_j
      [ Fixtures.theta3; Fixtures.theta1 ]
  in
  (* 2 stats + 2 chase-tier misses and the problem key from the first
     build; the swapped rebuild recomputes no analysis, only the key of its
     own candidate order *)
  Alcotest.(check int)
    "swapped order recomputes only its key" 6 (Cache.stats cache).Cache.misses;
  Alcotest.(check string) "swapped key" (Problem.digest swapped)
    (Problem.key swapped);
  Array.iteri
    (fun i (s : Cover.tgd_stats) ->
      Alcotest.(check int) (Printf.sprintf "stats %d re-indexed" i) i
        s.Cover.index)
    swapped.Problem.stats;
  Alcotest.(check string) "swapped labels follow the list"
    Fixtures.theta3.Logic.Tgd.label
    swapped.Problem.candidates.(0).Logic.Tgd.label

(* Per-solver cache-on/off bit-identity (cold and warm, every registry
   entry) is pinned declaratively by expect/e1_appendix.rtest's
   cached-registry test and the expect/cache_identity.rtest corpus replays. *)

let test_cached_selection_is_a_copy () =
  let cache = Cache.create () in
  let sel =
    Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:"k"
      (fun () -> [| true; false |])
  in
  sel.(0) <- false;
  let again =
    Cache.selection cache ~solver:"probe" ~seed:None ~problem_key:"k"
      (fun () -> Alcotest.fail "recomputed despite a warm cache")
  in
  Alcotest.(check (array bool)) "mutation did not reach the cache"
    [| true; false |] again

(* --- the cache spelling ------------------------------------------------- *)

(* [--cache]/[CACHE_DIR] accept exactly two spellings; anything else is an
   error that names what was given, never a directory. *)
let test_spellings () =
  (match Cache.of_spec "" with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "\"\" built a cache"
  | Error msg -> Alcotest.failf "\"\" rejected: %s" msg);
  (match Cache.of_spec "mem" with
  | Ok (Some cache) ->
    let calls = ref 0 in
    ignore (probe cache calls ~key:"k");
    ignore (probe cache calls ~key:"k");
    Alcotest.(check int) "mem memoizes" 1 !calls
  | Ok None -> Alcotest.fail "\"mem\" built no cache"
  | Error msg -> Alcotest.failf "\"mem\" rejected: %s" msg);
  List.iter
    (fun spec ->
      match Cache.of_spec spec with
      | Ok _ -> Alcotest.failf "%S accepted" spec
      | Error msg ->
        let quoted = Printf.sprintf "%S" spec in
        Alcotest.(check bool)
          (Printf.sprintf "error %S names %s" msg quoted)
          true (contains quoted msg))
    [ "some/dir"; "MEM"; " mem"; "/tmp" ]

(* --- key byte-identity oracle -------------------------------------------- *)

(* The string-concatenating renderers that every key was derived with
   before the buffer writers, kept verbatim as the oracle: the writers must
   reproduce them byte for byte, or pinned digests and the daemon's wire
   digests silently go stale. *)
module Reference = struct
  open Relational
  open Util

  let enc s =
    let plain = function
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '~' | '-' -> true
      | _ -> false
    in
    if String.for_all plain s then s
    else begin
      let buf = Buffer.create (String.length s + 8) in
      String.iter
        (fun c ->
          if plain c then Buffer.add_char buf c
          else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
        s;
      Buffer.contents buf
    end

  let frame parts =
    let buf = Buffer.create 256 in
    List.iter
      (fun p ->
        Buffer.add_string buf (string_of_int (String.length p));
        Buffer.add_char buf ':';
        Buffer.add_string buf p)
      parts;
    Buffer.contents buf

  let digest parts = Digest.to_hex (Digest.string (frame parts))

  let value = function
    | Value.Const s -> "C" ^ enc s
    | Value.Null n -> "N" ^ string_of_int n

  let tuple (t : Tuple.t) =
    let fields = Array.to_list t.Tuple.values |> List.map value in
    String.concat " " (("R" ^ enc t.Tuple.rel) :: fields)

  let instance inst =
    Instance.tuples inst |> List.map tuple |> String.concat ","

  let tgd t = enc (Logic.Tgd.to_string t)

  let frac f = Printf.sprintf "%d/%d" (Frac.num f) (Frac.den f)

  let example_keys ~source ~j =
    let source_key = digest [ "src"; instance source ] in
    (source_key, digest [ "data"; source_key; instance j ])

  let problem_parts (t : Problem.t) =
    let stat_part c (s : Cover.tgd_stats) =
      let buf = Buffer.create 128 in
      Buffer.add_string buf (tgd s.Cover.tgd);
      Buffer.add_string buf "|cost ";
      Buffer.add_string buf (frac t.Problem.cand_cost.(s.Cover.index));
      Array.iter
        (fun (i, d) ->
          Buffer.add_string buf "|cover ";
          Buffer.add_string buf (tuple t.Problem.tuples.(i));
          Buffer.add_char buf ' ';
          Buffer.add_string buf (frac d))
        t.Problem.covers.(c);
      List.iter
        (fun tu ->
          Buffer.add_string buf "|error ";
          Buffer.add_string buf (tuple tu))
        s.Cover.error_tuples;
      Buffer.add_string buf
        (Printf.sprintf "|produced %d|size %d" s.Cover.produced s.Cover.size);
      Buffer.contents buf
    in
    let w = t.Problem.weights in
    [
      "problem";
      Printf.sprintf "w %d %d %d" w.Problem.w_unexplained w.Problem.w_errors
        w.Problem.w_size;
    ]
    @ List.map tuple (Array.to_list t.Problem.tuples)
    @ List.mapi stat_part (Array.to_list t.Problem.stats)

  let problem_digest t = digest (problem_parts t)
end

(* Constants drawn to stress the percent-encoding: separators the key
   format itself uses (space, comma, '|', '%', ':'), non-ASCII bytes, and
   the empty string, beside plain tokens. *)
let awkward_const_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ ""; " "; "%"; "%25"; ","; "|"; "a b"; "1:2"; "\xc3\xa9t\xc3\xa9"; "\xff\x00" ];
        map (Printf.sprintf "c%d") (int_range 0 3);
        string_size ~gen:char (int_range 0 6);
      ])

let awkward_value_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun s -> Relational.Value.Const s) awkward_const_gen);
        ( 1,
          map
            (fun n -> Relational.Value.Null n)
            (oneof [ int_range (-50) 50; oneofl [ min_int; max_int; 0; -1 ] ]) );
      ])

(* Mixed arities under one relation name, awkward relation names, and the
   empty instance (list size 0). *)
let awkward_instance_gen =
  QCheck2.Gen.(
    let tuple =
      let* rel = oneofl [ "r"; "s"; "r s"; ""; "t%" ] in
      let* values = list_size (int_range 0 4) awkward_value_gen in
      return (Relational.Tuple.make rel values)
    in
    map Relational.Instance.of_tuples (list_size (int_range 0 12) tuple))

let frac_gen =
  QCheck2.Gen.(
    let* num =
      oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int + 1 ] ]
    in
    let* den = oneof [ int_range 1 1000; oneofl [ max_int ] ] in
    return (Util.Frac.make num den))

(* A selection problem whose J tuples carry awkward constants: the
   appendix vocabulary over a small constant pool, so the candidates'
   chases do cover some of J. *)
let awkward_problem_gen =
  QCheck2.Gen.(
    let const = oneofl [ "a b"; "%"; ","; "\xc3\xa9"; ""; "x" ] in
    let mk rel arity =
      map
        (fun cs -> Relational.Tuple.of_consts rel cs)
        (list_size (return arity) const)
    in
    let* source = list_size (int_range 1 5) (mk "proj" 3) in
    let* tasks = list_size (int_range 0 6) (mk "task" 3) in
    let* orgs = list_size (int_range 0 4) (mk "org" 2) in
    let* mask =
      list_size (return (List.length Fixtures.selection_candidate_pool)) bool
    in
    let* w1 = int_range 1 5 and* w2 = int_range 1 5 and* w3 = int_range 1 5 in
    let cands =
      List.filteri (fun i _ -> List.nth mask i) Fixtures.selection_candidate_pool
    in
    return
      (Problem.make
         ~weights:{ Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
         ~source:(Relational.Instance.of_tuples source)
         ~j:(Relational.Instance.of_tuples (tasks @ orgs))
         cands))

let ibench_problem_gen =
  QCheck2.Gen.(
    let* seed = int_range 1 1000 in
    let* rows = int_range 2 8 in
    let* pi_corresp = int_range 0 50 in
    let* pi_errors = int_range 0 50 in
    let* pi_unexplained = int_range 0 50 in
    let* w1 = int_range 1 4 and* w2 = int_range 1 4 and* w3 = int_range 1 4 in
    let s =
      Ibench.Generator.generate
        (Experiments.Common.noise_config ~rows ~seed ~pi_corresp ~pi_errors
           ~pi_unexplained ())
    in
    return
      (Problem.make
         ~weights:{ Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
         ~source:s.Ibench.Scenario.instance_i ~j:s.Ibench.Scenario.instance_j
         s.Ibench.Scenario.candidates))

let problem_digest_matches p =
  let expected = Reference.problem_digest p in
  String.equal expected (Problem.digest p)

(* A value rendered alone, through the writer that every key uses. *)
let render add x =
  let w = Cache.Key.writer 16 in
  add w x;
  Cache.Key.contents w

let key_oracle_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~count:300 ~name:"writers render the old bytes"
        ~print:(fun (i, j) ->
          Reference.instance i ^ " || " ^ Reference.instance j)
        QCheck2.Gen.(pair awkward_instance_gen awkward_instance_gen)
        (fun (source, j) ->
          let module K = Cache.Key in
          let tuple = render K.add_tuple in
          let tuples = Relational.Instance.tuples source in
          List.for_all
            (fun t ->
              String.equal (Reference.tuple t) (tuple t)
              && Array.for_all
                   (fun v ->
                     String.equal (Reference.value v) (render K.add_value v))
                   t.Relational.Tuple.values)
            tuples
          && String.equal (Reference.instance source)
               (render K.add_instance source)
          && String.equal (Reference.instance j) (render K.add_instance j)
          && Reference.example_keys ~source ~j = Cache.example_keys ~source ~j
          && String.equal
               (Reference.digest
                  (List.map Reference.tuple tuples @ [ ""; "a:b" ]))
               (K.digest (List.map tuple tuples @ [ ""; "a:b" ])));
      QCheck2.Test.make ~count:300 ~name:"fractions and ints render the old bytes"
        QCheck2.Gen.(pair frac_gen int)
        (fun (f, n) ->
          let b = Cache.Key.writer 16 in
          Cache.Key.add_int b n;
          String.equal (Reference.frac f) (render Cache.Key.add_frac f)
          && String.equal (string_of_int n) (Cache.Key.contents b));
      QCheck2.Test.make ~count:300
        ~name:"parts framed in place render the old frame"
        QCheck2.Gen.(
          list_size (int_range 0 6)
            (string_size ~gen:char
               (oneof
                  [ int_range 0 12; int_range 95 105; int_range 995 1005 ])))
        (fun parts ->
          (* a one-byte writer, so every close also grows it *)
          let w = Cache.Key.writer 1 in
          List.iter
            (fun p ->
              let start = Cache.Key.length w in
              Cache.Key.add_string w p;
              Cache.Key.close_part w start)
            parts;
          String.equal (Reference.frame parts) (Cache.Key.contents w)
          && String.equal (Reference.digest parts) (Cache.Key.digest_frame w));
      QCheck2.Test.make ~count:100 ~name:"problem digest equals the part list's"
        awkward_problem_gen problem_digest_matches;
      QCheck2.Test.make ~count:40
        ~name:"problem digest equals the part list's on iBench problems"
        ibench_problem_gen problem_digest_matches;
    ]
  @ [
      Alcotest.test_case "int extremes render as string_of_int" `Quick
        (fun () ->
          List.iter
            (fun n ->
              let b = Cache.Key.writer 16 in
              Cache.Key.add_int b n;
              Alcotest.(check string)
                "int" (string_of_int n) (Cache.Key.contents b))
            [ 0; 1; -1; 9; 10; -10; max_int; min_int ]);
      Alcotest.test_case "oracle problems cover, err and encode" `Quick
        (fun () ->
          (* guards the generators against drifting into trivial problems:
             the sample must render covers, error tuples with nulls, and
             covered tuples whose constants need percent-encoding *)
          let rand = Random.State.make [| 15 |] in
          let sample gen =
            List.init 30 (fun _ -> QCheck2.Gen.generate1 ~rand gen)
          in
          let texts =
            List.map
              (fun p -> String.concat "\n" (Reference.problem_parts p))
              (sample awkward_problem_gen @ sample ibench_problem_gen)
          in
          List.iter
            (fun sub ->
              Alcotest.(check bool) sub true (List.exists (contains sub) texts))
            [ "|cover "; "|error "; " N"; "|cover Rtask Ca%20b" ]);
      Alcotest.test_case "E1 problem digest is pinned" `Quick (fun () ->
          let p = make_problem () in
          Alcotest.(check string)
            "reference" "b5fc0caa89cc8925a22214fa4beaaf33"
            (Reference.problem_digest p);
          Alcotest.(check string)
            "writers" "b5fc0caa89cc8925a22214fa4beaaf33" (Problem.digest p));
    ]

(* --- key telemetry -------------------------------------------------------- *)

let span_count name =
  Option.value ~default:0 (List.assoc_opt name (Telemetry.span_counts ()))

let key_telemetry_tests =
  [
    Alcotest.test_case "cache.key_bytes counts the bytes fed to MD5" `Quick
      (fun () ->
        let source = Fixtures.instance_i and j = Fixtures.instance_j in
        let p = make_problem () in
        let spans_before = span_count "cache.key" in
        let key_bytes f = snd (Fixtures.counting [ "cache.key_bytes" ] f) in
        let keys = key_bytes (fun () -> Cache.example_keys ~source ~j) in
        let digest = key_bytes (fun () -> Problem.digest p) in
        let build =
          key_bytes (fun () -> make_problem ~cache:(Cache.create ()) ())
        in
        (* the cold build's two: example_keys, and the digest its problem
           key stores *)
        Alcotest.(check int)
          "one cache.key span each, two for the build" 4
          (span_count "cache.key" - spans_before);
        (* the pinned figures, then where they come from *)
        Alcotest.(check (list int)) "example_keys" [ 174 ] keys;
        Alcotest.(check (list int)) "Problem.digest" [ 498 ] digest;
        Alcotest.(check (list int)) "cold cached build" [ 1337 ] build;
        let frame_bytes parts = String.length (Reference.frame parts) in
        let source_key, data_key = Reference.example_keys ~source ~j in
        Alcotest.(check (list int))
          "example_keys = both frames"
          [
            frame_bytes [ "src"; Reference.instance source ]
            + frame_bytes [ "data"; source_key; Reference.instance j ];
          ]
          keys;
        Alcotest.(check (list int))
          "Problem.digest = its frame"
          [ frame_bytes (Reference.problem_parts p) ]
          digest;
        let stats_part tgd = [ "stats"; "corroborated"; Reference.tgd tgd; data_key ] in
        let per_candidate tgd =
          frame_bytes [ "chase"; Reference.tgd tgd; source_key ]
          + frame_bytes (stats_part tgd)
        in
        let build_frame =
          frame_bytes
            ("build" :: "w 1 1 1" :: data_key
            :: List.map
                 (fun tgd -> Reference.digest (stats_part tgd))
                 appendix_candidates)
        in
        Alcotest.(check (list int))
          "build = example_keys + a chase and a stats key per candidate + \
           the build key + the digest"
          [
            List.fold_left
              (fun acc tgd -> acc + per_candidate tgd)
              (List.hd keys + build_frame + List.hd digest)
              appendix_candidates;
          ]
          build);
  ]

(* --- the memoized problem key ---------------------------------------------- *)

(* Two existentials in one head: the chase invents a null per atom, and the
   core folds one task tuple onto the other, so cored statistics differ from
   uncored ones. *)
let twin_heads =
  let v x = Logic.Term.Var x in
  Logic.Tgd.make ~label:"twin_heads"
    ~body:[ Logic.Atom.make "proj" [ v "P"; v "E"; v "O" ] ]
    ~head:
      [
        Logic.Atom.make "task" [ v "P"; v "E"; v "T" ];
        Logic.Atom.make "task" [ v "P"; v "E"; v "U" ];
      ]
    ()

(* A data example over the appendix vocabulary, a non-empty candidate list
   and a permutation of it, and two weight triples. *)
let key_law_gen =
  QCheck2.Gen.(
    let const = oneofl [ "a"; "b"; "c"; "SAP" ] in
    let mk rel arity =
      map (fun cs -> Relational.Tuple.of_consts rel cs) (list_repeat arity const)
    in
    let weights =
      let* w1 = int_range 1 5 and* w2 = int_range 1 5 and* w3 = int_range 1 5 in
      return { Problem.w_unexplained = w1; w_errors = w2; w_size = w3 }
    in
    let pool = twin_heads :: Fixtures.selection_candidate_pool in
    let* source = list_size (int_range 1 3) (mk "proj" 3) in
    let* tasks = list_size (int_range 0 5) (mk "task" 3) in
    let* orgs = list_size (int_range 0 3) (mk "org" 2) in
    let* mask = list_repeat (List.length pool) bool in
    let cands = List.filteri (fun i _ -> List.nth mask i) pool in
    let cands = if cands = [] then [ twin_heads ] else cands in
    let* permuted = shuffle_l cands in
    let* w = weights and* w' = weights in
    return
      ( Relational.Instance.of_tuples source,
        Relational.Instance.of_tuples (tasks @ orgs),
        (cands, permuted),
        (w, w') ))

let print_key_law (source, j, (cands, permuted), _) =
  let labels l = String.concat "," (List.map (fun t -> t.Logic.Tgd.label) l) in
  Printf.sprintf "I = %s\nJ = %s\ncandidates %s, permuted %s"
    (Reference.instance source) (Reference.instance j) (labels cands)
    (labels permuted)

let key_is_digest p = String.equal (Problem.key p) (Problem.digest p)

(* Every build of one data example through one cache, twice over, under
   every semantics, core flag, candidate order and weight triple: each
   build's key, and the key of each build re-weighted, is its digest. A
   build key that missed an input the problem depends on would hand one
   build another's digest. *)
let key_law (source, j, (cands, permuted), (w, w')) =
  let cache = Cache.create () in
  List.for_all
    (fun semantics ->
      List.for_all
        (fun core ->
          List.for_all
            (fun candidates ->
              List.for_all
                (fun (weights, other) ->
                  List.for_all
                    (fun () ->
                      let p =
                        Problem.make ~weights ~semantics ~core ~cache ~source ~j
                          candidates
                      in
                      key_is_digest p
                      && key_is_digest (Problem.with_weights p other))
                    [ (); () ])
                [ (w, w'); (w', w) ])
            [ cands; permuted ])
        [ false; true ])
    Cover.[ Corroborated; Strict; Generous ]

(* [n] domains ask for [f ()] at once. *)
let at_once n f =
  let ready = Atomic.make 0 in
  List.init n (fun _ ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < n do
            Domain.cpu_relax ()
          done;
          f ()))
  |> List.map Domain.join

let problem_key_tests =
  [
    QCheck2.Test.make ~count:100 ~name:"key equals digest over builds in one cache"
      ~print:print_key_law key_law_gen key_law
    |> QCheck_alcotest.to_alcotest;
    Alcotest.test_case "a build with no candidates is keyed by its J" `Quick
      (fun () ->
        let cache = Cache.create () in
        let build j =
          Problem.make ~cache ~source:Fixtures.instance_i ~j []
        in
        let empty = build Relational.Instance.empty in
        let appendix = build Fixtures.instance_j in
        Alcotest.(check bool) "empty J" true (key_is_digest empty);
        Alcotest.(check bool) "appendix J" true (key_is_digest appendix));
    Alcotest.test_case "four domains get one key" `Quick (fun () ->
        let p = make_problem () in
        let d = Problem.digest p in
        Alcotest.(check (list string)) "uncached problem" [ d; d; d; d ]
          (at_once 4 (fun () -> Problem.key p));
        let cache = Cache.create () in
        let warm = make_problem ~cache () in
        Alcotest.(check (list string)) "cached build" [ d; d; d; d ]
          (at_once 4 (fun () -> Problem.key warm));
        let cache = Cache.create () in
        Alcotest.(check (list string)) "builds through one cache"
          [ d; d; d; d ]
          (at_once 4 (fun () -> Problem.key (make_problem ~cache ())));
        (* single-flight: one miss per distinct key, whatever the races *)
        Alcotest.(check int) "misses" 5 (Cache.stats cache).Cache.misses);
  ]

(* --- experiments plumbing ----------------------------------------------- *)

let test_experiments_cache_identity () =
  let scenario =
    Ibench.Generator.generate
      (Experiments.Common.noise_config ~seed:3 ~pi_corresp:20 ~pi_errors:10
         ~pi_unexplained:10 ())
  in
  let solve ctx =
    let p = Experiments.Common.problem_of_scenario ctx scenario in
    ( p,
      Experiments.Common.run_solver ctx Experiments.Common.Greedy_solver
        scenario p )
  in
  let plain, out_plain = Experiments.Common.Ctx.with_ctx ~jobs:1 solve in
  let cache = Cache.create () in
  let cached, out_cached =
    Experiments.Common.Ctx.with_ctx ~cache ~jobs:1 solve
  in
  Alcotest.(check string) "problem identical through Common"
    (Problem.digest plain) (Problem.digest cached);
  Alcotest.(check (array bool))
    "selection identical through Common" out_plain.Experiments.Common.selection
    out_cached.Experiments.Common.selection;
  Alcotest.(check bool)
    "cache was exercised" true
    ((Cache.stats cache).Cache.misses > 0)

let () =
  Alcotest.run "cache"
    [
      ( "accounting",
        [
          Alcotest.test_case "misses count computations, hits the rest" `Quick
            test_hit_miss_accounting;
          Alcotest.test_case "LRU evicts the least recently used" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "single-flight totals are jobs-invariant" `Quick
            test_single_flight_parallel;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "cached problem equals uncached" `Quick
            test_problem_bit_identity;
          Alcotest.test_case "cached stats re-index per candidate list" `Quick
            test_reindexing;
          Alcotest.test_case "returned selections are private copies" `Quick
            test_cached_selection_is_a_copy;
          Alcotest.test_case "Experiments.Common honours the shared cache"
            `Quick test_experiments_cache_identity;
        ] );
      ("key-oracle", key_oracle_tests);
      ("problem-key", problem_key_tests);
      ("key-bytes", key_telemetry_tests);
      ( "spec",
        [
          Alcotest.test_case "empty is none, mem a cache, others error"
            `Quick test_spellings;
        ] );
    ]
