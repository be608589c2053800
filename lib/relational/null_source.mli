(** A supply of fresh labeled nulls.

    The chase invents one null per existential variable per trigger; a
    [Null_source.t] hands out globally fresh labels. Mutable by design — a
    single source is threaded through one chase run. *)

type t

val create : ?first : int -> unit -> t
(** A source whose first null is [Null first] (default 0). *)

val fresh : t -> Value.t
(** The next unused labeled null. *)

val count : t -> int
(** How many nulls have been handed out. *)
