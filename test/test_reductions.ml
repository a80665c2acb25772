(* Tests for rc_reductions: source-problem solvers and the four
   theorem constructions (E3–E8 of DESIGN.md). *)

module G = Rc_graph.Graph
module ISet = G.ISet
module Generators = Rc_graph.Generators
module Multiway_cut = Rc_reductions.Multiway_cut
module Sat = Rc_reductions.Sat
module Vertex_cover = Rc_reductions.Vertex_cover
module Thm2 = Rc_reductions.Thm2_aggressive
module Thm3 = Rc_reductions.Thm3_conservative
module Thm4 = Rc_reductions.Thm4_incremental
module Thm6 = Rc_reductions.Thm6_optimistic
module Lift = Rc_reductions.Lift

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Multiway cut solver                                                 *)
(* ------------------------------------------------------------------ *)

let test_mwc_triangle () =
  (* triangle of terminals: all 3 edges must go *)
  let inst = Multiway_cut.make (G.clique 3) [ 0; 1; 2 ] in
  let v, assign = Multiway_cut.solve inst in
  check_int "cut = 3" 3 v;
  check "witness consistent" true
    (Multiway_cut.cut_value inst assign = Some 3)

let test_mwc_star () =
  (* star: center 3 connected to terminals 0,1,2 — cut 2 suffices *)
  let inst =
    Multiway_cut.make (G.of_edges [ (3, 0); (3, 1); (3, 2) ]) [ 0; 1; 2 ]
  in
  let v, _ = Multiway_cut.solve inst in
  check_int "cut = 2" 2 v;
  check "decide true at 2" true (Multiway_cut.decide inst ~bound:2);
  check "decide false at 1" false (Multiway_cut.decide inst ~bound:1)

let test_mwc_disconnected () =
  let g = G.of_edges ~vertices:[ 0; 1; 2 ] [] in
  let inst = Multiway_cut.make g [ 0; 1; 2 ] in
  check_int "already separated" 0 (fst (Multiway_cut.solve inst))

let test_mwc_rejects () =
  check "duplicate terminals" true
    (try
       ignore (Multiway_cut.make (G.clique 3) [ 0; 0 ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* SAT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sat_basic () =
  check "empty satisfiable" true (Sat.solve [] <> None);
  check "empty clause unsat" true (Sat.solve [ [] ] = None);
  check "unit" true (Sat.solve [ [ 1 ] ] <> None);
  check "contradiction" true (Sat.solve [ [ 1 ]; [ -1 ] ] = None);
  (* a classic small unsat 3SAT-ish instance *)
  check "x & !x via clauses" true
    (Sat.solve [ [ 1; 2 ]; [ 1; -2 ]; [ -1; 2 ]; [ -1; -2 ] ] = None)

let test_sat_witness () =
  let cnf = [ [ 1; -2; 3 ]; [ -1; 2 ]; [ -3 ] ] in
  match Sat.solve cnf with
  | Some assign -> check "witness satisfies" true (Sat.eval cnf assign)
  | None -> Alcotest.fail "satisfiable instance"

let test_sat_random_witnesses () =
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 20 do
    let cnf = Sat.random_3sat rng ~vars:6 ~clauses:15 in
    match Sat.solve cnf with
    | Some assign -> check "witness valid" true (Sat.eval cnf assign)
    | None ->
        (* verify unsatisfiability by exhaustion over 2^6 assignments *)
        let sat = ref false in
        for mask = 0 to 63 do
          let assign v = mask land (1 lsl (v - 1)) <> 0 in
          if Sat.eval cnf assign then sat := true
        done;
        check "DPLL-unsat confirmed" false !sat
  done

let test_to_4sat () =
  let cnf = [ [ 1; 2; 3 ]; [ -1; -2; -3 ] ] in
  let x0, cnf4 = Sat.to_4sat cnf in
  check_int "x0 fresh" 4 x0;
  check "every clause 4 literals" true
    (List.for_all (fun c -> List.length c = 4) cnf4);
  check "padded always satisfiable" true (Sat.solve cnf4 <> None);
  (* padded with x0 = false <=> original *)
  let with_x0_false = [ -x0 ] :: cnf4 in
  check "restriction equisatisfiable" true
    ((Sat.solve with_x0_false <> None) = (Sat.solve cnf <> None))

(* ------------------------------------------------------------------ *)
(* Vertex cover                                                        *)
(* ------------------------------------------------------------------ *)

let test_vc_basics () =
  check_int "triangle needs 2" 2 (ISet.cardinal (Vertex_cover.minimum (G.clique 3)));
  check_int "star needs 1" 1
    (ISet.cardinal (Vertex_cover.minimum (G.of_edges [ (0, 1); (0, 2); (0, 3) ])));
  check_int "empty graph 0" 0 (ISet.cardinal (Vertex_cover.minimum G.empty));
  check_int "P4 needs 2" 2 (ISet.cardinal (Vertex_cover.minimum (G.path 4)))

let test_vc_witness_is_cover () =
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 15 do
    let g = Generators.random_bounded_degree rng ~n:8 ~max_degree:3 ~edges:9 in
    let c = Vertex_cover.minimum g in
    check "is a cover" true (Vertex_cover.is_cover g c);
    check "max degree respected" true (Vertex_cover.max_degree g <= 3)
  done

(* ------------------------------------------------------------------ *)
(* Theorem 2 (Figure 1)                                                *)
(* ------------------------------------------------------------------ *)

let test_thm2_gadget_shape () =
  let inst = Multiway_cut.make (G.of_edges [ (0, 1); (1, 2); (0, 3) ]) [ 0; 1; 2 ] in
  let gadget = Thm2.build inst in
  (* interference graph: triangle on terminals, everything else isolated *)
  check_int "3 interferences only" 3 (G.num_edges gadget.problem.graph);
  check "terminal clique" true (G.is_clique gadget.problem.graph [ 0; 1; 2 ]);
  check_int "two affinities per source edge" 6
    (List.length gadget.problem.affinities);
  check_int "one subdivision vertex per edge" 3 (List.length gadget.edge_vertex)

let test_thm2_equivalence () =
  let rng = Random.State.make [| 2 |] in
  for _ = 1 to 12 do
    let inst = Multiway_cut.random rng ~n:7 ~p:0.4 ~terminals:3 in
    let opt, _ = Multiway_cut.solve inst in
    let gadget = Thm2.build inst in
    check_int "Theorem 2: min cut = min uncoalesced" opt
      (Thm2.min_uncoalesced gadget);
    (* decision version at the optimum and just below *)
    check "decide at opt" true (Thm2.verify inst ~bound:opt = (true, true));
    if opt > 0 then
      check "decide below opt" true
        (Thm2.verify inst ~bound:(opt - 1) = (false, false))
  done

let test_thm2_witness_program () =
  (* the generated code realizes the gadget: same interference graph,
     same affinities *)
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 8 do
    let inst = Multiway_cut.random rng ~n:6 ~p:0.5 ~terminals:3 in
    let gadget = Thm2.build inst in
    let prog = Thm2.program inst in
    check "program valid" true (Rc_ir.Ir.validate prog = Ok ());
    let g = Rc_ir.Interference.build prog in
    check "interference graph matches Figure 1" true
      (G.equal g gadget.problem.graph);
    let affs =
      Rc_ir.Interference.affinities prog
      |> List.map (fun ((u, v), w) -> ((u, v), w))
      |> List.sort compare
    in
    let expected =
      List.map
        (fun (a : Rc_core.Problem.affinity) -> ((a.u, a.v), a.weight))
        gadget.problem.affinities
      |> List.sort compare
    in
    check "affinities match" true (affs = expected)
  done

let test_thm2_weighted () =
  (* weighted multiway cut: the heavy edge is avoided by the cut *)
  let g = G.of_edges [ (0, 3); (1, 3); (2, 3) ] in
  (* star center 3; cutting the two cheap edges (total 2) beats cutting
     the expensive one *)
  let inst =
    Multiway_cut.make ~weights:[ ((0, 3), 10) ] g [ 0; 1; 2 ]
  in
  let cut, assign = Multiway_cut.solve inst in
  check_int "weighted optimum avoids the heavy edge" 2 cut;
  check "witness consistent" true (Multiway_cut.cut_value inst assign = Some 2);
  let gadget = Thm2.build inst in
  check_int "Theorem 2 weighted: cut weight = uncoalesced weight" 2
    (Thm2.min_uncoalesced gadget);
  (* random weighted instances *)
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 6 do
    let src = Rc_graph.Generators.gnp rng ~n:6 ~p:0.5 in
    let weights =
      List.map (fun e -> (e, 1 + Random.State.int rng 5)) (G.edges src)
    in
    let inst = Multiway_cut.make ~weights src [ 0; 1; 2 ] in
    let cut, _ = Multiway_cut.solve inst in
    let gadget = Thm2.build inst in
    check_int "weighted equivalence" cut (Thm2.min_uncoalesced gadget)
  done

(* ------------------------------------------------------------------ *)
(* Theorem 3 (Figure 2)                                                *)
(* ------------------------------------------------------------------ *)

let test_thm3_gadget_shape () =
  let source = G.cycle 5 in
  let gadget = Thm3.build source ~k:3 in
  (* the interference graph is a disjoint union of edges: greedy-2 *)
  check "gadget greedy-2-colorable" true
    (Rc_graph.Greedy_k.is_greedy_k_colorable gadget.problem.graph 2);
  check_int "one interference per source edge" 5
    (G.num_edges gadget.problem.graph);
  check_int "two affinities per source edge" 10
    (List.length gadget.problem.affinities);
  (* coalescing everything reproduces the source *)
  check "coalesced graph is the source" true
    (G.equal (Thm3.coalesced_source gadget) source)

let test_thm3_equivalence () =
  let rng = Random.State.make [| 4 |] in
  for _ = 1 to 10 do
    let source = Generators.gnp rng ~n:7 ~p:0.45 in
    let colorable, coalescable = Thm3.verify source ~k:3 in
    check "Theorem 3: 3-colorable iff fully coalescable" true
      (colorable = coalescable)
  done;
  (* known negatives and positives *)
  check "K4 not coalescable at k=3" true (Thm3.verify (G.clique 4) ~k:3 = (false, false));
  check "C5 coalescable at k=3" true (Thm3.verify (G.cycle 5) ~k:3 = (true, true))

let test_thm3_clique_variant () =
  let source = G.cycle 4 in
  let p = Thm3.build_clique_variant source ~k:2 in
  check "validates" true (Rc_core.Problem.validate p = Ok ());
  (* C4 is 2-colorable: the full coalescing exists and can reach a
     2-clique; exact conservative coalescing loses nothing of the
     original edge affinities *)
  let sol = Rc_core.Exact.conservative_k_colorable p in
  let lost_edge_affinities =
    List.filter
      (fun (a : Rc_core.Problem.affinity) ->
        (* affinities to subdivision vertices of source edges have both
           endpoints < max source id + 2*|E| + 1; the pair gadgets come
           later.  Rather than decode ids, just check total optimality
           against the basic gadget. *)
        ignore a;
        false)
      sol.gave_up
  in
  ignore lost_edge_affinities;
  check "at least the edge affinities coalesced" true
    (Rc_core.Coalescing.coalesced_weight sol >= 8)

(* ------------------------------------------------------------------ *)
(* Theorem 4 (Figure 4)                                                *)
(* ------------------------------------------------------------------ *)

let test_thm4_gadget_shape () =
  let cnf = [ [ 1; 2; 3 ] ] in
  let gadget = Thm4.build cnf in
  check_int "k = 3" 3 gadget.problem.k;
  check_int "single affinity" 1 (List.length gadget.problem.affinities);
  (* base triangle present *)
  let g = gadget.problem.graph in
  check "T-F-R triangle" true
    (G.mem_edge g gadget.vertex_t gadget.vertex_f
    && G.mem_edge g gadget.vertex_f gadget.vertex_r
    && G.mem_edge g gadget.vertex_r gadget.vertex_t);
  (* variable triangles *)
  check "x1 triangle" true
    (G.mem_edge g (gadget.pos 1) (gadget.neg 1)
    && G.mem_edge g (gadget.pos 1) gadget.vertex_r);
  (* gadget graph always 3-colorable (padded formula satisfiable) *)
  check "3-colorable" true (Rc_graph.Coloring.k_colorable g 3 <> None)

let test_thm4_known_instances () =
  (* satisfiable formula *)
  check "sat formula" true (Thm4.verify [ [ 1; 2; 3 ]; [ -1; 2; 3 ] ] = (true, true));
  (* unsatisfiable: all 8 sign patterns over 3 vars *)
  let all_signs =
    [
      [ 1; 2; 3 ]; [ 1; 2; -3 ]; [ 1; -2; 3 ]; [ 1; -2; -3 ];
      [ -1; 2; 3 ]; [ -1; 2; -3 ]; [ -1; -2; 3 ]; [ -1; -2; -3 ];
    ]
  in
  check "unsat formula" true (Thm4.verify all_signs = (false, false))

let test_thm4_equivalence_random () =
  let rng = Random.State.make [| 6 |] in
  for i = 1 to 10 do
    let cnf = Sat.random_3sat rng ~vars:4 ~clauses:(6 + (i mod 10)) in
    let sat, coalescable = Thm4.verify cnf in
    check "Theorem 4: satisfiable iff (x0, F) coalescable" true
      (sat = coalescable)
  done

let test_thm4_coloring_to_assignment () =
  let cnf = [ [ 1; 2; 3 ]; [ -2; -3; 1 ] ] in
  let gadget = Thm4.build cnf in
  (* force x0's vertex to F's color, color, and read the assignment *)
  match
    Rc_core.Exact.incremental gadget.problem (gadget.pos gadget.x0)
      gadget.vertex_f
  with
  | false -> Alcotest.fail "satisfiable formula expected coalescable"
  | true -> (
      let st = Rc_core.Coalescing.initial gadget.problem in
      match Rc_core.Coalescing.merge st (gadget.pos gadget.x0) gadget.vertex_f with
      | None -> Alcotest.fail "merge failed"
      | Some st -> (
          match
            Rc_graph.Coloring.k_colorable (Rc_core.Coalescing.graph st) 3
          with
          | None -> Alcotest.fail "coloring expected"
          | Some coloring ->
              (* lift the coloring back to the original vertices *)
              let full =
                List.fold_left
                  (fun acc v ->
                    G.IMap.add v
                      (G.IMap.find (Rc_core.Coalescing.find st v) coloring)
                      acc)
                  G.IMap.empty
                  (G.vertices gadget.problem.graph)
              in
              let assign = Thm4.coloring_to_assignment gadget full in
              check "decoded assignment satisfies" true (Sat.eval cnf assign)))

(* ------------------------------------------------------------------ *)
(* Theorem 6 (Figures 6–7)                                             *)
(* ------------------------------------------------------------------ *)

let test_thm6_structure_properties () =
  (* one isolated source vertex: structure with no branch edges *)
  let lone = G.add_vertex G.empty 0 in
  let gadget = Thm6.build lone in
  let h = Thm6.coalesced_graph gadget in
  check "P2: orphan structure fully eaten" true
    (Rc_graph.Greedy_k.is_greedy_k_colorable h 4);
  (* a single edge: both structures alive, deadlock *)
  let edge = G.of_edges [ (0, 1) ] in
  let gadget2 = Thm6.build edge in
  let h2 = Thm6.coalesced_graph gadget2 in
  check "P3: uncovered edge blocks greedy-4" false
    (Rc_graph.Greedy_k.is_greedy_k_colorable h2 4);
  (* de-coalescing one heart unblocks (a cover of size 1) *)
  check_int "one de-coalescing suffices" 1 (Thm6.min_decoalesced gadget2);
  (* the input graph H' is greedy-4-colorable *)
  check "H' greedy-4" true
    (Rc_graph.Greedy_k.is_greedy_k_colorable gadget2.problem.graph 4)

let test_thm6_p4_eats_from_heart () =
  (* triangle source: every structure has live branches, but splitting
     all hearts still unravels everything *)
  let gadget = Thm6.build (G.clique 3) in
  check "all hearts split: greedy-4" true
    (Rc_graph.Greedy_k.is_greedy_k_colorable gadget.problem.graph 4)

let test_thm6_equivalence () =
  let rng = Random.State.make [| 8 |] in
  for _ = 1 to 8 do
    let src = Generators.random_bounded_degree rng ~n:5 ~max_degree:3 ~edges:6 in
    let vc = ISet.cardinal (Vertex_cover.minimum src) in
    let gadget = Thm6.build src in
    check_int "Theorem 6: min cover = min de-coalescing" vc
      (Thm6.min_decoalesced gadget);
    check "decision at bound" true (Thm6.verify src ~bound:vc = (true, true));
    if vc > 0 then
      check "decision below bound" true
        (Thm6.verify src ~bound:(vc - 1) = (false, false))
  done

let test_thm6_optimistic_heuristic_upper_bound () =
  (* the Park–Moon heuristic's de-coalescing count is an upper bound on
     the optimum (i.e. a valid vertex cover) *)
  let rng = Random.State.make [| 10 |] in
  for _ = 1 to 6 do
    let src = Generators.random_bounded_degree rng ~n:5 ~max_degree:3 ~edges:5 in
    let gadget = Thm6.build src in
    let sol = Rc_core.Optimistic.coalesce gadget.problem in
    check "heuristic conservative" true
      (Rc_core.Coalescing.is_conservative gadget.problem sol);
    check "heuristic >= optimum" true
      (List.length sol.gave_up >= Thm6.min_decoalesced gadget)
  done

let test_thm6_chordal_variant () =
  (* the Figure 7 refinement: H' chordal, everything still equivalent *)
  let rng = Random.State.make [| 61 |] in
  for _ = 1 to 3 do
    let src = Generators.random_bounded_degree rng ~n:4 ~max_degree:3 ~edges:4 in
    let gadget = Thm6.build_chordal src in
    check "H' is chordal" true
      (Rc_graph.Chordal.is_chordal gadget.problem.graph);
    check "H' greedy-4" true
      (Rc_graph.Greedy_k.is_greedy_k_colorable gadget.problem.graph 4);
    check "all affinities coalescable" true
      (Rc_core.Aggressive.all_coalescable gadget.problem <> None);
    let vc = ISet.cardinal (Vertex_cover.minimum src) in
    check_int "chordal variant: min cover = min de-coalescing" vc
      (Thm6.min_decoalesced gadget)
  done

let test_thm6_degree_bound_enforced () =
  check "degree 4 rejected" true
    (try
       ignore (Thm6.build (G.of_edges [ (0, 1); (0, 2); (0, 3); (0, 4) ]));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Property 2 (Lift)                                                   *)
(* ------------------------------------------------------------------ *)

let test_lift_shapes () =
  let g = G.cycle 5 in
  let g2 = Lift.augment g ~p:2 in
  check_int "vertices added" 7 (G.num_vertices g2);
  (* new vertices form a clique connected to everything *)
  check_int "edges" (5 + 1 + (2 * 5)) (G.num_edges g2)

let prop_lift_preserves_structure =
  QCheck.Test.make ~name:"Property 2: clique lift k -> k+p" ~count:60
    QCheck.(pair small_nat (1 -- 3))
    (fun (seed, p) ->
      let rng = Random.State.make [| seed; 23 |] in
      let g = Generators.gnp rng ~n:9 ~p:0.35 in
      let g' = Lift.augment g ~p in
      let k = 3 in
      (Rc_graph.Coloring.k_colorable g k <> None)
      = (Rc_graph.Coloring.k_colorable g' (k + p) <> None)
      && Rc_graph.Chordal.is_chordal g = Rc_graph.Chordal.is_chordal g'
      && Rc_graph.Greedy_k.is_greedy_k_colorable g k
         = Rc_graph.Greedy_k.is_greedy_k_colorable g' (k + p))

let test_lift_problem () =
  let p = Rc_core.Problem.make ~graph:(G.path 4)
      ~affinities:[ ((0, 2), 1); ((1, 3), 1) ] ~k:2 in
  let p' = Lift.augment_problem p ~p:2 in
  check_int "k lifted" 4 p'.k;
  let w = Rc_core.Coalescing.coalesced_weight (Rc_core.Exact.conservative p) in
  let w' = Rc_core.Coalescing.coalesced_weight (Rc_core.Exact.conservative p') in
  check_int "optimum preserved" w w'

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let test_figures () =
  (* Figure 1 example instance: 3 terminals, cut = 2 *)
  let mwc = Rc_reductions.Figures.fig1_multiway_cut () in
  check_int "fig1 optimum" 2 (fst (Multiway_cut.solve mwc));
  let gadget = Thm2.build mwc in
  check_int "fig1 min uncoalesced" 2 (Thm2.min_uncoalesced gadget);
  (* Figure 3a: Briggs rejects the single move, all four are fine *)
  let p3a = Rc_reductions.Figures.fig3_permutation () in
  check "fig3a briggs rejects" false
    (Rc_core.Rules.briggs p3a.graph ~k:p3a.k 0 4);
  let st =
    List.fold_left
      (fun st (a : Rc_core.Problem.affinity) ->
        match Rc_core.Coalescing.merge st a.u a.v with
        | Some st' -> st'
        | None -> st)
      (Rc_core.Coalescing.initial p3a)
      p3a.affinities
  in
  check "fig3a all-coalesced greedy-6" true
    (Rc_graph.Greedy_k.is_greedy_k_colorable (Rc_core.Coalescing.graph st) p3a.k);
  (* Figure 3b: set coalescing wins over singletons *)
  let p3b = Rc_reductions.Figures.fig3_pairwise () in
  check_int "fig3b singles" 0
    (Rc_core.Coalescing.coalesced_weight
       (Rc_core.Conservative.coalesce Rc_core.Conservative.Brute_force p3b));
  check_int "fig3b pairs" 2
    (Rc_core.Coalescing.coalesced_weight
       (Rc_core.Set_coalescing.coalesce ~max_set:2 p3b))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rc_reductions"
    [
      ( "multiway_cut",
        [
          Alcotest.test_case "triangle" `Quick test_mwc_triangle;
          Alcotest.test_case "star" `Quick test_mwc_star;
          Alcotest.test_case "disconnected" `Quick test_mwc_disconnected;
          Alcotest.test_case "rejections" `Quick test_mwc_rejects;
        ] );
      ( "sat",
        [
          Alcotest.test_case "basics" `Quick test_sat_basic;
          Alcotest.test_case "witness" `Quick test_sat_witness;
          Alcotest.test_case "random vs exhaustive" `Quick
            test_sat_random_witnesses;
          Alcotest.test_case "4SAT padding" `Quick test_to_4sat;
        ] );
      ( "vertex_cover",
        [
          Alcotest.test_case "basics" `Quick test_vc_basics;
          Alcotest.test_case "witness" `Quick test_vc_witness_is_cover;
        ] );
      ( "thm2",
        [
          Alcotest.test_case "gadget shape" `Quick test_thm2_gadget_shape;
          Alcotest.test_case "equivalence" `Slow test_thm2_equivalence;
          Alcotest.test_case "witness program (Figure 1)" `Quick
            test_thm2_witness_program;
          Alcotest.test_case "weighted variant" `Slow test_thm2_weighted;
        ] );
      ( "thm3",
        [
          Alcotest.test_case "gadget shape" `Quick test_thm3_gadget_shape;
          Alcotest.test_case "equivalence" `Slow test_thm3_equivalence;
          Alcotest.test_case "clique variant" `Quick test_thm3_clique_variant;
        ] );
      ( "thm4",
        [
          Alcotest.test_case "gadget shape" `Quick test_thm4_gadget_shape;
          Alcotest.test_case "known instances" `Quick test_thm4_known_instances;
          Alcotest.test_case "equivalence" `Slow test_thm4_equivalence_random;
          Alcotest.test_case "assignment decoding" `Quick
            test_thm4_coloring_to_assignment;
        ] );
      ( "thm6",
        [
          Alcotest.test_case "structure properties" `Quick
            test_thm6_structure_properties;
          Alcotest.test_case "eats from the heart" `Quick
            test_thm6_p4_eats_from_heart;
          Alcotest.test_case "equivalence" `Slow test_thm6_equivalence;
          Alcotest.test_case "chordal variant (Figure 7)" `Slow
            test_thm6_chordal_variant;
          Alcotest.test_case "heuristic upper bound" `Slow
            test_thm6_optimistic_heuristic_upper_bound;
          Alcotest.test_case "degree bound" `Quick test_thm6_degree_bound_enforced;
        ] );
      ( "lift",
        [
          Alcotest.test_case "shapes" `Quick test_lift_shapes;
          Alcotest.test_case "problem lift" `Quick test_lift_problem;
        ] );
      ("figures", [ Alcotest.test_case "paper figures" `Quick test_figures ]);
      ("properties", qc [ prop_lift_preserves_structure ]);
    ]
