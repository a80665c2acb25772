module Graph = Rc_graph.Graph
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing

type gadget = {
  problem : Problem.t;
  edge_gadget : ((Graph.vertex * Graph.vertex) * (Graph.vertex * Graph.vertex)) list;
}

let build source ~k =
  let next = ref (Graph.max_vertex source + 1) in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let edge_gadget =
    List.map (fun (u, v) -> ((u, v), (fresh (), fresh ()))) (Graph.edges source)
  in
  let g = List.fold_left Graph.add_vertex Graph.empty (Graph.vertices source) in
  let g =
    List.fold_left (fun g (_, (x, y)) -> Graph.add_edge g x y) g edge_gadget
  in
  let affinities =
    List.concat_map
      (fun ((u, v), (x, y)) -> [ ((u, x), 1); ((y, v), 1) ])
      edge_gadget
  in
  { problem = Problem.make ~graph:g ~affinities ~k; edge_gadget }

let build_clique_variant source ~k =
  let gadget = build source ~k in
  let next = ref (Graph.max_vertex gadget.problem.graph + 1) in
  let fresh () =
    let v = !next in
    incr next;
    v
  in
  let vs = Graph.vertices source in
  let pair_affinities =
    let rec go acc = function
      | [] -> acc
      | u :: rest ->
          let acc =
            List.fold_left
              (fun acc v ->
                let x = fresh () in
                ((u, x), 1) :: ((v, x), 1) :: acc)
              acc rest
          in
          go acc rest
    in
    go [] vs
  in
  let graph =
    List.fold_left
      (fun g ((_, x), _) -> Graph.add_vertex g x)
      gadget.problem.graph pair_affinities
  in
  let affinities =
    List.map (fun (a : Problem.affinity) -> ((a.u, a.v), a.weight))
      gadget.problem.affinities
    @ pair_affinities
  in
  Problem.make ~graph ~affinities ~k

let coalesced_source gadget =
  let st =
    List.fold_left
      (fun st (a : Problem.affinity) ->
        match Coalescing.merge st a.u a.v with
        | Some st' -> st'
        | None -> st)
      (Coalescing.initial gadget.problem)
      gadget.problem.affinities
  in
  (* Relabel each class by its original source vertex so the result is
     directly comparable with the source graph. *)
  let g = Coalescing.graph st in
  let source_vertices =
    List.filter
      (fun v ->
        not
          (List.exists
             (fun (_, (x, y)) -> v = x || v = y)
             gadget.edge_gadget))
      (Graph.vertices gadget.problem.graph)
  in
  let rename =
    List.fold_left
      (fun m v -> Graph.IMap.add (Coalescing.find st v) v m)
      Graph.IMap.empty source_vertices
  in
  Graph.map_vertices
    (fun v -> match Graph.IMap.find_opt v rename with Some s -> s | None -> v)
    g

let verify source ~k =
  let gadget = build source ~k in
  let colorable = Rc_graph.Coloring.k_colorable source k <> None in
  let sol = Rc_core.Exact.conservative_k_colorable gadget.problem in
  (colorable, sol.Rc_core.Coalescing.gave_up = [])
