type t = {
  inst : Instance.t;
  table : (string * int * Value.t, Tuple.t list) Hashtbl.t;
}

let build inst =
  let table = Hashtbl.create 256 in
  Instance.iter
    (fun tu ->
      Array.iteri
        (fun pos v ->
          let key = (tu.Tuple.rel, pos, v) in
          let prev = Option.value ~default:[] (Hashtbl.find_opt table key) in
          Hashtbl.replace table key (tu :: prev))
        tu.Tuple.values)
    inst;
  { inst; table }

let instance t = t.inst

let find t rel pos v =
  Option.value ~default:[] (Hashtbl.find_opt t.table (rel, pos, v))
