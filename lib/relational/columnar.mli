(** An alias of {!Index}, kept only because the pipeline benchmark's
    traced path still names it: a source is indexed once with
    {!of_instance} and chased per candidate through [Chase.run_columnar],
    which is the row-major chase over this index. *)

type t = Index.t

val of_instance : Instance.t -> t
