open Relational

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) Fun.id in
    let curr = Array.make (lb + 1) 0 in
    for i = 1 to la do
      curr.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit curr 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

let is_substring ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  ln > 0 && lh >= ln
  && (let rec scan i =
        i + ln <= lh && (String.equal (String.sub hay i ln) needle || scan (i + 1))
      in
      scan 0)

let similarity a b =
  let a = String.lowercase_ascii a and b = String.lowercase_ascii b in
  let longest = max (String.length a) (String.length b) in
  if longest = 0 then 1.
  else begin
    let edit = 1. -. (float_of_int (levenshtein a b) /. float_of_int longest) in
    (* abbreviations ("emp" vs "employee") defeat plain edit distance; a
       containment of at least three characters scores a flat 0.9 *)
    let shortest = min (String.length a) (String.length b) in
    let contained =
      shortest >= 3 && (is_substring ~needle:a b || is_substring ~needle:b a)
    in
    if contained then Float.max edit 0.9 else edit
  end

let score ~src:(srel, sattr) ~tgt:(trel, tattr) =
  (0.8 *. similarity sattr tattr) +. (0.2 *. similarity srel trel)

let positions schema =
  List.concat_map
    (fun (r : Relation.t) ->
      Array.to_list r.Relation.attrs |> List.map (fun a -> (r.Relation.name, a)))
    (Schema.relations schema)

(* Score all pairs, keep those above the threshold, best per (target
   position, source relation). *)
let select_best scored =
  let ordered =
    List.sort
      (fun (s1, src1, t1) (s2, src2, t2) ->
        match Float.compare s2 s1 with
        | 0 -> Stdlib.compare (t1, src1) (t2, src2)
        | c -> c)
      scored
  in
  let taken = Hashtbl.create 16 in
  List.filter_map
    (fun (_, ((srel, _) as src), tgt) ->
      if Hashtbl.mem taken (tgt, srel) then None
      else begin
        Hashtbl.add taken (tgt, srel) ();
        Some (Correspondence.make ~src ~tgt)
      end)
    ordered

let propose ?(threshold = 0.75) ~source ~target () =
  let sources = positions source in
  let scored =
    List.concat_map
      (fun tgt ->
        List.filter_map
          (fun src ->
            let s = score ~src ~tgt in
            if s >= threshold then Some (s, src, tgt) else None)
          sources)
      (positions target)
  in
  select_best scored
