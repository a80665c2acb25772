(* Quickstart: build a small coalescing instance by hand, run iterated
   register coalescing and a few other strategies on it, and print the
   resulting register assignment.

   Run with: dune exec examples/quickstart.exe *)

module G = Rc_graph.Graph
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing

let () =
  (* An interference graph for 8 variables with 3 registers.  Variables
     0-1-2 are simultaneously live (a triangle); 3..7 overlap various
     subsets; the dotted affinities come from two move instructions and
     one phi. *)
  let graph =
    G.of_edges
      [
        (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4); (4, 5); (5, 6); (4, 6);
        (6, 7);
      ]
  in
  let affinities = [ ((0, 3), 10); ((3, 5), 4); ((1, 7), 2) ] in
  let problem = Problem.make ~graph ~affinities ~k:3 in
  Format.printf "instance: %s@." (Problem.stats problem);

  (* Iterated register coalescing (George & Appel). *)
  let result = Rc_core.Irc.allocate problem in
  Format.printf "@.IRC allocation (k = %d, %d round%s, %d spill%s):@."
    problem.k result.rounds
    (if result.rounds = 1 then "" else "s")
    (List.length result.spilled)
    (if List.length result.spilled = 1 then "" else "s");
  List.iter
    (fun v ->
      match G.IMap.find_opt v result.coloring with
      | Some c -> Format.printf "  v%d -> r%d@." v c
      | None -> Format.printf "  v%d -> spilled@." v)
    (G.vertices graph);
  Format.printf "moves removed: %d of %d (weight %d of %d)@."
    (List.length result.solution.coalesced)
    (List.length problem.affinities)
    (Coalescing.coalesced_weight result.solution)
    (Problem.total_weight problem);

  (* Compare the whole strategy spectrum. *)
  Format.printf "@.strategy comparison:@.";
  List.iter
    (fun s ->
      let r =
        Rc_core.Strategies.(evaluate_cfg default_config) s problem
      in
      Format.printf "  %a@." Rc_core.Strategies.pp_report r)
    (Rc_core.Strategies.all_heuristics @ [ Rc_core.Strategies.Exact_conservative ]);

  (* Export a Graphviz rendering with dotted affinities. *)
  let dot =
    Rc_graph.Dot.to_string ~name:"quickstart"
      ~affinities:(List.map (fun ((u, v), _) -> (u, v)) affinities)
      graph
  in
  Format.printf "@.Graphviz (pipe into `dot -Tpng`):@.%s@." dot
