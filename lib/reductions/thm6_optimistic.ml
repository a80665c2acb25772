module Graph = Rc_graph.Graph
module Problem = Rc_core.Problem

type gadget = {
  problem : Problem.t;
  heart : Graph.vertex -> Graph.vertex * Graph.vertex;
  structure_vertices : Graph.vertex -> Graph.vertex list;
  source : Graph.t;
}

(* Per-structure vertex offsets (12 vertices per source vertex). *)
let off_a = 0 (* A: clique side of the heart *)
let off_a' = 1 (* A': branch side of the heart *)
let off_v i = 2 + i (* branches v1 v2 v3, i in 0..2 *)
let off_w i = 5 + i (* widgets w1 w2 w3 *)
let off_c i = 8 + i (* core clique c1..c4, i in 0..3 *)
let structure_size = 12

let build source =
  let vs = Graph.vertices source in
  if List.exists (fun v -> Graph.degree source v > 3) vs then
    invalid_arg "Thm6_optimistic.build: source vertex of degree > 3";
  let index =
    List.mapi (fun i v -> (v, i)) vs
    |> List.fold_left (fun m (v, i) -> Graph.IMap.add v i m) Graph.IMap.empty
  in
  let base v = structure_size * Graph.IMap.find v index in
  let g = ref Graph.empty in
  let edge u v = g := Graph.add_edge !g u v in
  List.iter
    (fun v ->
      let b = base v in
      let a = b + off_a and a' = b + off_a' in
      let c i = b + off_c i in
      (* Core clique c1..c4. *)
      for i = 0 to 3 do
        for j = i + 1 to 3 do
          edge (c i) (c j)
        done
      done;
      (* Heart: A on the clique side, A' on the branch side. *)
      edge a (c 0);
      edge a (c 1);
      edge a (c 2);
      for i = 0 to 2 do
        let vi = b + off_v i and wi = b + off_w i in
        edge vi a';
        edge vi (c 3);
        edge vi wi;
        edge wi (c 0);
        edge wi (c 1);
        edge wi (c 3)
      done)
    vs;
  (* Branch-to-branch edges realizing the source edges: each endpoint
     uses its next unused branch slot. *)
  let slot = Hashtbl.create 16 in
  let next_slot v =
    let s = match Hashtbl.find_opt slot v with Some s -> s | None -> 0 in
    Hashtbl.replace slot v (s + 1);
    if s > 2 then invalid_arg "Thm6_optimistic.build: branch slots exhausted";
    s
  in
  List.iter
    (fun (u, v) ->
      let su = next_slot u and sv = next_slot v in
      edge (base u + off_v su) (base v + off_v sv))
    (Graph.edges source);
  let affinities =
    List.map (fun v -> ((base v + off_a, base v + off_a'), 1)) vs
  in
  let problem = Problem.make ~graph:!g ~affinities ~k:4 in
  {
    problem;
    heart = (fun v -> (base v + off_a, base v + off_a'));
    structure_vertices =
      (fun v -> List.init structure_size (fun i -> base v + i));
    source;
  }

(* Figure 7 layout: 18 vertices per structure.  The branch vertex is in
   three affinity-chained pieces: u (A'-side), v (core side: c4 and w),
   e (the external edge). *)
let ch_a = 0
let ch_a' = 1
let ch_u i = 2 + i
let ch_v i = 5 + i
let ch_e i = 8 + i
let ch_w i = 11 + i
let ch_c i = 14 + i
let ch_size = 18

let build_chordal source =
  let vs = Graph.vertices source in
  if List.exists (fun v -> Graph.degree source v > 3) vs then
    invalid_arg "Thm6_optimistic.build_chordal: source vertex of degree > 3";
  let index =
    List.mapi (fun i v -> (v, i)) vs
    |> List.fold_left (fun m (v, i) -> Graph.IMap.add v i m) Graph.IMap.empty
  in
  let base v = ch_size * Graph.IMap.find v index in
  let g = ref Graph.empty in
  let edge u v = g := Graph.add_edge !g u v in
  List.iter
    (fun v ->
      let b = base v in
      let c i = b + ch_c i in
      for i = 0 to 3 do
        for j = i + 1 to 3 do
          edge (c i) (c j)
        done
      done;
      edge (b + ch_a) (c 0);
      edge (b + ch_a) (c 1);
      edge (b + ch_a) (c 2);
      for i = 0 to 2 do
        edge (b + ch_u i) (b + ch_a');
        edge (b + ch_v i) (c 3);
        edge (b + ch_v i) (b + ch_w i);
        edge (b + ch_w i) (c 0);
        edge (b + ch_w i) (c 1);
        edge (b + ch_w i) (c 3);
        (* make sure every piece exists even when unused *)
        g := Graph.add_vertex !g (b + ch_e i)
      done)
    vs;
  let slot = Hashtbl.create 16 in
  let next_slot v =
    let s = match Hashtbl.find_opt slot v with Some s -> s | None -> 0 in
    Hashtbl.replace slot v (s + 1);
    if s > 2 then invalid_arg "Thm6_optimistic.build_chordal: slots exhausted";
    s
  in
  List.iter
    (fun (u, v) ->
      let su = next_slot u and sv = next_slot v in
      edge (base u + ch_e su) (base v + ch_e sv))
    (Graph.edges source);
  let affinities =
    List.concat_map
      (fun v ->
        let b = base v in
        ((b + ch_a, b + ch_a'), 1)
        :: List.concat_map
             (fun i ->
               [ ((b + ch_u i, b + ch_v i), 1); ((b + ch_v i, b + ch_e i), 1) ])
             [ 0; 1; 2 ])
      vs
  in
  let problem = Problem.make ~graph:!g ~affinities ~k:4 in
  {
    problem;
    heart = (fun v -> (base v + ch_a, base v + ch_a'));
    structure_vertices = (fun v -> List.init ch_size (fun i -> base v + i));
    source;
  }

let coalesced_graph gadget =
  let st =
    List.fold_left
      (fun st (a : Problem.affinity) ->
        match Rc_core.Coalescing.merge st a.u a.v with
        | Some st' -> st'
        | None ->
            invalid_arg "Thm6_optimistic.coalesced_graph: heart interferes")
      (Rc_core.Coalescing.initial gadget.problem)
      gadget.problem.affinities
  in
  Rc_core.Coalescing.graph st

let min_decoalesced gadget =
  let sol = Rc_core.Exact.conservative gadget.problem in
  List.length sol.Rc_core.Coalescing.gave_up

let verify source ~bound =
  let gadget = build source in
  (Vertex_cover.decide source ~bound, min_decoalesced gadget <= bound)
