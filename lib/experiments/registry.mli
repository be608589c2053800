(** The experiment registry: every table/figure of the reproduction, by id.
    Runners take the solver context ({!Common.Ctx}) that carries the cache
    and the parallelism degree. *)

val all : (string * string * (Common.Ctx.t -> Table.t)) list
(** [(id, one-line description, runner)] for E1..E15, in order. *)

val find : string -> (Common.Ctx.t -> Table.t) option
(** Case-insensitive lookup by id. *)

val run_all : Common.Ctx.t -> Format.formatter -> unit
(** Runs every experiment and prints its table, in registry order. With
    [Ctx.jobs ctx > 1] the (mutually independent) experiments run
    concurrently on the context's pool; tables are rendered off-formatter
    and printed in registry order, so the output is identical to a
    sequential run. *)
