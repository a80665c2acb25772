(* Walks a program through the full pipeline the paper's introduction
   describes: random structured program -> SSA construction (Theorem 1:
   chordal interference) -> spill-everywhere to Maxlive <= k ->
   out-of-SSA lowering with parallel copies -> coalescing of the
   inserted moves.

   Run with: dune exec examples/out_of_ssa.exe [seed] *)

module G = Rc_graph.Graph
module Ir = Rc_ir.Ir

let stage fmt = Format.printf ("@.== " ^^ fmt ^^ " ==@.")

let graph_summary name g =
  Format.printf "%s: %d vertices, %d edges, chordal=%b@." name
    (G.num_vertices g) (G.num_edges g)
    (Rc_graph.Chordal.is_chordal g)

let () =
  let seed =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2026
  in
  let k = 4 in
  let rng = Random.State.make [| seed |] in

  stage "1. random structured program (seed %d)" seed;
  let prog = Rc_ir.Randprog.generate rng Rc_ir.Randprog.default_config in
  Format.printf "%d blocks, %d variables, %d moves@."
    (List.length (Ir.labels prog))
    (List.length (Ir.all_vars prog))
    (List.length (Ir.moves prog));

  stage "2. SSA construction";
  let ssa = Rc_ir.Ssa.construct prog in
  assert (Rc_ir.Ssa.is_ssa ssa && Rc_ir.Ssa.is_strict ssa);
  let phis =
    List.fold_left
      (fun acc l -> acc + List.length (Ir.block ssa l).phis)
      0 (Ir.labels ssa)
  in
  Format.printf "%d variables after renaming, %d phis inserted@."
    (List.length (Ir.all_vars ssa))
    phis;
  let live = Rc_ir.Liveness.compute ssa in
  Format.printf "Maxlive = %d@." (Rc_ir.Liveness.maxlive ssa live);
  graph_summary "interference (Theorem 1 says chordal)"
    (Rc_ir.Interference.build ~move_aware:false ssa);

  stage "3. spill everywhere down to k = %d" k;
  let spilled = Rc_ir.Spill.spill_everywhere ssa ~k in
  let live = Rc_ir.Liveness.compute spilled in
  Format.printf "Maxlive = %d (<= k)@." (Rc_ir.Liveness.maxlive spilled live);
  graph_summary "interference after spilling"
    (Rc_ir.Interference.build ~move_aware:false spilled);

  stage "4. out-of-SSA lowering";
  let lowered = Rc_ir.Out_of_ssa.eliminate_phis spilled in
  Format.printf "%d move instructions after phi elimination (was %d)@."
    (List.length (Ir.moves lowered))
    (List.length (Ir.moves spilled));

  stage "5. coalescing the SSA instance (phi affinities)";
  let graph = Rc_ir.Interference.build spilled in
  let affinities = Rc_ir.Interference.affinities spilled in
  let problem = Rc_core.Problem.make ~graph ~affinities ~k in
  Format.printf "%s@." (Rc_core.Problem.stats problem);
  List.iter
    (fun s ->
      let r =
        Rc_core.Strategies.(evaluate_cfg default_config) s problem
      in
      Format.printf "  %a@." Rc_core.Strategies.pp_report r)
    [
      Rc_core.Strategies.Conservative Rc_core.Conservative.Briggs;
      Rc_core.Strategies.Conservative Rc_core.Conservative.Briggs_george;
      Rc_core.Strategies.Conservative Rc_core.Conservative.Brute_force;
      Rc_core.Strategies.Irc Rc_core.Irc.Briggs_and_george;
      Rc_core.Strategies.Optimistic;
      Rc_core.Strategies.Chordal_incremental;
    ];

  stage "6. final allocation";
  let result = Rc_core.Irc.allocate problem in
  Format.printf
    "IRC: %d rounds, %d spills, %d/%d moves coalesced, %d colors used@."
    result.rounds
    (List.length result.spilled)
    (List.length result.solution.coalesced)
    (List.length problem.affinities)
    (Rc_graph.Coloring.num_colors result.coloring)
