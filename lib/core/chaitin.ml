module Graph = Rc_graph.Graph
module ISet = Graph.ISet
module Greedy_k = Rc_graph.Greedy_k

type result = {
  solution : Coalescing.solution;
  spilled : Graph.vertex list;
  coloring : Rc_graph.Coloring.coloring;
}

(* Total affinity weight touching a class (lost if the class spills). *)
let class_weight (p : Problem.t) st repr =
  List.fold_left
    (fun acc (a : Problem.affinity) ->
      if Coalescing.find st a.u = repr || Coalescing.find st a.v = repr then
        acc + a.weight
      else acc)
    0 p.affinities

let allocate (p : Problem.t) =
  (* Phase 1: aggressive coalescing, exactly alternative (a) of
     Section 3 — merge regardless of colorability. *)
  let st = Aggressive.coalesce_state (Coalescing.initial p) p.affinities in
  (* Phase 2: while the merged graph is stuck, spill (remove) a class of
     the residue, preferring high degree and low cost — Chaitin's
     cost/degree metric with unit base cost plus the affinity weight the
     spill forfeits. *)
  let rec spill_loop graph st spilled =
    match Greedy_k.witness_subgraph graph p.k with
    | None -> (graph, spilled)
    | Some residue ->
        let metric r =
          float_of_int (1 + class_weight p st r)
          /. float_of_int (max 1 (Graph.degree graph r))
        in
        let victim =
          ISet.fold
            (fun r best ->
              match best with
              | Some b when metric b <= metric r -> best
              | Some _ | None -> Some r)
            residue None
          |> function
          | Some r -> r
          | None -> assert false
        in
        spill_loop (Graph.remove_vertex graph victim) st
          (Coalescing.class_of st victim @ spilled)
  in
  let graph, spilled = spill_loop (Coalescing.graph st) st [] in
  let coloring =
    match Greedy_k.color graph p.k with
    | Some c -> c
    | None -> assert false (* the spill loop ends on a greedy-k graph *)
  in
  (* Push class colors out to original vertices. *)
  let coloring =
    List.fold_left
      (fun acc v ->
        let r = Coalescing.find st v in
        match Graph.IMap.find_opt r coloring with
        | Some c -> Graph.IMap.add v c acc
        | None -> acc)
      Graph.IMap.empty
      (Graph.vertices p.graph)
  in
  let solution = Coalescing.solution_of_state p st in
  { solution; spilled = List.sort_uniq compare spilled; coloring }
