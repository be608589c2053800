type outcome = {
  selection : bool array;
  fractional : float array option;
}

module type S = sig
  val name : string

  val solve : ?pool:Parallel.Pool.t -> ?seed:int -> Problem.t -> outcome
end

type t = (module S)

let discrete selection = { selection; fractional = None }

(* Canonical settings live here, once: [local] keeps cmd_select's historical
   3 restarts, [anneal]/[cmd]/[exact] their module defaults. *)

module Greedy_s = struct
  let name = "greedy"

  let solve ?pool:_ ?seed:_ p = discrete (Greedy.solve p)
end

module Exact_s = struct
  let name = "exact"

  let solve ?pool:_ ?seed:_ p = discrete (Exact.solve p)
end

module Local_s = struct
  let name = "local"

  let solve ?pool ?seed p = discrete (Local_search.solve ?pool ?seed ~restarts:3 p)
end

module Anneal_s = struct
  let name = "anneal"

  let solve ?pool ?seed p = discrete (Anneal.solve ?pool ?seed p)
end

module Cmd_s = struct
  let name = "cmd"

  let solve ?pool:_ ?seed:_ p =
    let r = Cmd.solve p in
    { selection = r.Cmd.selection; fractional = Some r.Cmd.fractional }
end

module All_s = struct
  let name = "all"

  let solve ?pool:_ ?seed:_ p = discrete (Array.make (Problem.num_candidates p) true)
end

module Portfolio_s = struct
  let name = "portfolio"

  (* Racing order = preference order on ties: the paper's solver first, then
     exact (an automatic prover when every component of the problem is small
     enough — it drops out via [Solver_error] when one exceeds its candidate
     limit), then the cheap heuristics. *)
  let roster =
    let entry r_exact (module M : S) =
      {
        Portfolio.r_name = M.name;
        r_solve = (fun ?pool ?seed p -> (M.solve ?pool ?seed p).selection);
        r_exact;
      }
    in
    [
      entry false (module Cmd_s);
      entry true (module Exact_s);
      entry false (module Greedy_s);
      entry false (module Local_s);
      entry false (module Anneal_s);
    ]

  let solve ?pool ?seed p = discrete (Portfolio.race ~roster ?pool ?seed p).Portfolio.selection
end

let all : t list =
  [
    (module Greedy_s);
    (module Exact_s);
    (module Local_s);
    (module Anneal_s);
    (module Cmd_s);
    (module All_s);
    (module Portfolio_s);
  ]

let name (module S : S) = S.name

let names () = List.map name all

let find n =
  let n = String.lowercase_ascii n in
  List.find_opt (fun (module S : S) -> String.equal S.name n) all

let solve (module S : S) ?pool ?seed ?cache p =
  Telemetry.with_span ("solver." ^ S.name) (fun () ->
      let stash = ref None in
      let run () =
        let o = S.solve ?pool ?seed p in
        stash := Some o;
        o.selection
      in
      let sel =
        match cache with
        | None -> run ()
        | Some cache ->
          (* Sound because [S.solve] is deterministic in (problem, seed) —
             the interface contract above — and never in [pool]. *)
          Cache.selection cache ~solver:S.name ~seed
            ~problem_key:(Problem.key p) run
      in
      match !stash with
      | Some o -> { o with selection = sel }
      | None -> discrete sel)
