open Relational
open Logic

let implied_through ~hops weak =
  (* Rename apart so freezing cannot capture variables across the tgds. *)
  let weak = Tgd.rename_apart ~suffix:"_w" weak in
  (* The frozen head must map into the chase result with frontier variables
     pinned to their frozen values (labeled nulls with negative labels; see
     [Containment.freeze]). *)
  let source, pinned =
    Containment.freeze ~pinned:(Tgd.frontier_vars weak) weak.Tgd.body
  in
  (* One null source threads through every hop, so the labels invented while
     chasing hop k can never collide with those carried over from hop k-1. *)
  let nulls = Null_source.create () in
  let chased =
    List.fold_left
      (fun inst hop -> Engine.universal_solution ~nulls inst hop)
      source hops
  in
  Cq.extensions chased pinned weak.Tgd.head <> []

let implied_by ~by weak = implied_through ~hops:[ by ] weak

let implies strong weak = implied_by ~by:[ strong ] weak

let equivalent a b = implies a b && implies b a

let minimize_tgd (tgd : Tgd.t) =
  let head_vars = Tgd.head_vars tgd in
  (* Positional removal: dropping index [i] removes exactly one occurrence,
     so a body sharing one physical atom twice shrinks one step at a time. *)
  let rec shrink (current : Tgd.t) =
    let try_without i =
      let body = List.filteri (fun j _ -> j <> i) current.Tgd.body in
      if body = [] then None
      else
        let frontier_kept =
          String_set.subset
            (String_set.inter head_vars (Tgd.body_vars current))
            (Atom.vars_of_list body)
        in
        if not frontier_kept then None
        else
          let candidate =
            Tgd.make ~label:current.Tgd.label ~body ~head:current.Tgd.head ()
          in
          if equivalent candidate current then Some candidate else None
    in
    match
      List.find_map try_without
        (List.init (List.length current.Tgd.body) Fun.id)
    with
    | Some smaller -> shrink smaller
    | None -> current
  in
  shrink tgd

let minimize tgds =
  let arr = Array.of_list tgds in
  let n = Array.length arr in
  let redundant = Array.make n false in
  (* j is dropped when some other candidate i implies it and wins the
     tie-break: smaller size, or equal size and earlier position. *)
  let beats i j =
    let si = Tgd.size arr.(i) and sj = Tgd.size arr.(j) in
    si < sj || (si = sj && i < j)
  in
  for j = 0 to n - 1 do
    let i = ref 0 in
    while (not redundant.(j)) && !i < n do
      if !i <> j && (not redundant.(!i)) && beats !i j && implies arr.(!i) arr.(j)
      then redundant.(j) <- true;
      incr i
    done
  done;
  List.filteri (fun j _ -> not redundant.(j)) tgds
