open Util

(* Forward pass on a shared incremental state: the marginal gain of adding a
   candidate is the negated flip delta, so each sweep is one pass over the
   unselected candidates' cover lists. *)
let forward st =
  let m = Problem.num_candidates (Incremental.problem st) in
  let continue_ = ref true in
  while !continue_ do
    let pick = ref None in
    for c = 0 to m - 1 do
      if not (Incremental.is_selected st c) then begin
        let gain = Frac.neg (Incremental.flip_delta st c) in
        if Frac.(Frac.zero < gain) then
          match !pick with
          | Some (_, g) when Frac.(gain <= g) -> ()
          | Some _ | None -> pick := Some (c, gain)
      end
    done;
    match !pick with
    | None -> continue_ := false
    | Some (c, _) -> Incremental.flip st c
  done

let backward st =
  let m = Problem.num_candidates (Incremental.problem st) in
  let improved = ref true in
  while !improved do
    improved := false;
    for c = 0 to m - 1 do
      if Incremental.is_selected st c then
        if Frac.(Incremental.flip_delta st c < Frac.zero) then begin
          Incremental.flip st c;
          improved := true
        end
    done
  done

let solve p =
  let st = Incremental.create p (Array.make (Problem.num_candidates p) false) in
  forward st;
  backward st;
  Incremental.selection st
