type t = Index.t

let of_instance = Index.build
