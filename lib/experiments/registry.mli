(** The experiment registry: every table/figure of the reproduction, by id.
    Runners take the solver context ({!Common.Ctx}) that carries the cache
    and the worker pool. *)

val all : (string * string * (Common.Ctx.t -> Table.t)) list
(** [(id, one-line description, runner)] for E1..E15 in order, without
    E13 (the retired Eq. 4 fast path). *)

val find : string -> (Common.Ctx.t -> Table.t) option
(** Case-insensitive lookup by id. *)

val run_all : Common.Ctx.t -> Format.formatter -> unit
(** Runs every experiment, as one {!Common.parallel_map} batch over the
    (mutually independent) experiments, and prints their tables in
    registry order once all are done. The bytes are those of a sequential
    run for any pool size. *)
