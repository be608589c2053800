(** A textual format for PSL programs.

    Line-oriented:

    {v
    # the classic smokers program
    predicate friend/2 closed
    predicate smokes/1
    observe friend(anna, bob) = 1.0
    observe smokes(anna) = 1.0          # open observations = training labels
    rule influence 2.0: friend(X, Y) & smokes(X) -> smokes(Y)
    rule prior 0.5: smokes(X) & friend(X, Y) ->
    rule anchor hard: -> smokes(anna)
    rule sq 1.5 squared: smokes(X) -> smokes(X)
    v}

    Identifiers starting with an uppercase letter or underscore are rule
    variables; everything else is a constant. A rule's weight is a finite
    non-negative number, or [hard]; [squared] after the weight squares the
    hinge. Either side of [->] may be empty. An observed truth value is a
    number in [0,1]. A weight or truth value outside its range ([nan] and
    [inf] included) is an error on its line. *)

type t = {
  predicates : Predicate.t list;
  observations : (Gatom.t * float) list;
  rules : Rule.t list;
}

type error = {
  line : int;
  message : string;
}

val pp_error : Format.formatter -> error -> unit

val parse : string -> (t, error) result

val parse_file : string -> (t, error) result
(** Raises [Sys_error] if the file cannot be read. *)

val database : t -> Database.t
(** The program's database: its predicates with all observations applied
    (validation errors surface as [Invalid_argument], e.g. arity
    mismatches — [parse] already rejects most). *)

val pp : Format.formatter -> t -> unit
(** Prints a program in the same format ([parse] inverts it). *)
