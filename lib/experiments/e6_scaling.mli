(** E6 — figure: runtime scaling with scenario size.

    Scenarios grow by adding whole primitive-mix blocks (one instance of each
    of the seven primitives per block). For each size the table reports the
    candidate count, the ground model size, and wall-clock times of the
    precomputation (chase + degrees), CMD (ADMM + rounding) and exact branch
    and bound, which searches each independent component of candidates on
    its own and so answers every size. *)

val run : ?blocks : int list -> ?seed : int -> Common.Ctx.t -> Table.t
(** Default blocks: [1; 2; 4; 8; 16]. *)
