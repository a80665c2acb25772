module ISet = Graph.ISet
module IMap = Graph.IMap

(* Maximum-cardinality search on the flat kernel.  Visits vertices by
   decreasing number of already-visited neighbors; the reverse visit
   order is a PEO iff the graph is chordal.  Weights live in a scratch
   array and the weight buckets are plain stacks with lazy deletion
   (an entry is stale when the vertex was visited or re-pushed at a
   higher weight), giving O(V + E) total.  Returns dense indices in
   reverse visit order — the head is eliminated first. *)
let flat_mcs_order f =
  let n = Flat.num_live f in
  if n = 0 then []
  else begin
    let weight = Flat.scratch1 f in
    let visited = Flat.scratch2 f in
    Flat.iter_live f (fun v ->
        weight.(v) <- 0;
        visited.(v) <- 0);
    let buckets = Array.make (n + 1) [] in
    Flat.iter_live f (fun v -> buckets.(0) <- v :: buckets.(0));
    let max_w = ref 0 in
    let order = ref [] in
    for _ = 1 to n do
      let rec pop () =
        match buckets.(!max_w) with
        | [] ->
            decr max_w;
            pop ()
        | v :: rest ->
            buckets.(!max_w) <- rest;
            if visited.(v) = 1 || weight.(v) <> !max_w then pop () else v
      in
      let v = pop () in
      visited.(v) <- 1;
      order := v :: !order;
      Flat.iter_neighbors f v (fun u ->
          if visited.(u) = 0 then begin
            let w = weight.(u) + 1 in
            weight.(u) <- w;
            buckets.(w) <- u :: buckets.(w);
            if w > !max_w then max_w := w
          end)
    done;
    !order
  end

(* Zero-fill-in check of a candidate PEO, flat: for each vertex, its
   later neighbors minus the follower (earliest later neighbor) must
   all be adjacent to the follower — each adjacency probe is an O(1)
   bitmatrix read, so the whole check is O(V + E).  [order] must
   enumerate the live indices exactly once. *)
let flat_is_peo f order =
  let pos = Flat.scratch1 f in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let ok = ref true in
  List.iteri
    (fun pv v ->
      if !ok then begin
        let follower = ref (-1) and follower_pos = ref max_int in
        Flat.iter_neighbors f v (fun u ->
            if pos.(u) > pv && pos.(u) < !follower_pos then begin
              follower := u;
              follower_pos := pos.(u)
            end);
        if !follower >= 0 then
          Flat.iter_neighbors f v (fun u ->
              if pos.(u) > pv && u <> !follower
                 && not (Flat.mem_edge f !follower u)
              then ok := false)
      end)
    order;
  !ok

let flat_is_chordal f = flat_is_peo f (flat_mcs_order f)

let mcs_order g =
  let f = Flat.of_graph g in
  List.map (Flat.label f) (flat_mcs_order f)

let is_perfect_elimination_order g order =
  if
    List.length order <> Graph.num_vertices g
    || not (List.for_all (Graph.mem_vertex g) order)
  then false
  else begin
    let f = Flat.of_graph g in
    let idx_order = List.map (Flat.index f) order in
    (* Reject repeats: combined with the length check above this makes
       [order] a permutation of the vertex set. *)
    let seen = Array.make (max 1 (Flat.capacity f)) false in
    let distinct =
      List.for_all
        (fun v ->
          if seen.(v) then false
          else begin
            seen.(v) <- true;
            true
          end)
        idx_order
    in
    distinct && flat_is_peo f idx_order
  end

let is_chordal g = flat_is_chordal (Flat.of_graph g)

(* Later-neighbor map: for each vertex, its neighbors occurring strictly
   after it in [order].  Feeds the PEO-derived structures below (omega,
   coloring, maximal cliques), which stay on the persistent
   representation — they are not on the hot paths. *)
let later_neighbors g order =
  let position = Hashtbl.create (List.length order) in
  List.iteri (fun i v -> Hashtbl.replace position v i) order;
  let later v =
    let pv = Hashtbl.find position v in
    ISet.filter (fun u -> Hashtbl.find position u > pv) (Graph.neighbors g v)
  in
  (position, later)

let simplicial_vertices g =
  List.filter
    (fun v -> Graph.is_clique g (ISet.elements (Graph.neighbors g v)))
    (Graph.vertices g)

let require_chordal g fn =
  if not (is_chordal g) then
    invalid_arg (Printf.sprintf "Chordal.%s: graph is not chordal" fn)

let omega g =
  require_chordal g "omega";
  if Graph.num_vertices g = 0 then 0
  else
    let order = mcs_order g in
    let _, later = later_neighbors g order in
    List.fold_left (fun m v -> max m (1 + ISet.cardinal (later v))) 1 order

let color g =
  require_chordal g "color";
  let order = mcs_order g in
  Coloring.greedy g (List.rev order)

let maximal_cliques g =
  require_chordal g "maximal_cliques";
  let order = mcs_order g in
  let _, later = later_neighbors g order in
  let position = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace position v i) order;
  let candidate v = ISet.add v (later v) in
  (* A candidate C_v can only be contained in C_w for w = v or an earlier
     neighbor of v (the representative of any containing clique precedes
     all its members in the PEO). *)
  let earlier_neighbors v =
    ISet.filter
      (fun u -> Hashtbl.find position u < Hashtbl.find position v)
      (Graph.neighbors g v)
  in
  List.filter_map
    (fun v ->
      let cv = candidate v in
      let dominated =
        ISet.exists (fun w -> ISet.subset cv (candidate w)) (earlier_neighbors v)
      in
      if dominated then None else Some cv)
    order

let find_chordless_cycle g =
  if is_chordal g then None
  else
    (* Look for a vertex v with two non-adjacent neighbors u, w connected
       by a path avoiding v and all other neighbors of v: the shortest
       such path closes a chordless cycle through v. *)
    let shortest_path_avoiding g src dst forbidden =
      let q = Queue.create () in
      let parent = Hashtbl.create 16 in
      Queue.add src q;
      Hashtbl.replace parent src src;
      let rec bfs () =
        if Queue.is_empty q then None
        else
          let v = Queue.pop q in
          if v = dst then begin
            let rec build v acc =
              if v = src then src :: acc
              else build (Hashtbl.find parent v) (v :: acc)
            in
            Some (build dst [])
          end
          else begin
            ISet.iter
              (fun u ->
                if (not (Hashtbl.mem parent u)) && not (ISet.mem u forbidden)
                then begin
                  Hashtbl.replace parent u v;
                  Queue.add u q
                end)
              (Graph.neighbors g v);
            bfs ()
          end
      in
      bfs ()
    in
    let result = ref None in
    let check v =
      if !result = None then
        let ns = ISet.elements (Graph.neighbors g v) in
        List.iter
          (fun u ->
            List.iter
              (fun w ->
                if !result = None && u < w && not (Graph.mem_edge g u w) then
                  let forbidden =
                    ISet.add v
                      (ISet.remove u (ISet.remove w (Graph.neighbors g v)))
                  in
                  match shortest_path_avoiding g u w forbidden with
                  | Some p -> result := Some (v :: p)
                  | None -> ())
              ns)
          ns
    in
    List.iter check (Graph.vertices g);
    !result

(* ------------------------------------------------------------------ *)
(* Reference implementations on the persistent representation, an
   independent oracle in two roles: the certifier and the Theorem 1
   lint (Rc_check) re-derive chordality with them, and the equivalence
   property tests hold the flat kernel to them.                        *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  let mcs_order g =
    let n = Graph.num_vertices g in
    if n = 0 then []
    else begin
      let weight = Hashtbl.create n in
      let visited = Hashtbl.create n in
      List.iter (fun v -> Hashtbl.replace weight v 0) (Graph.vertices g);
      let buckets = Hashtbl.create n in
      let bucket w =
        match Hashtbl.find_opt buckets w with Some s -> s | None -> ISet.empty
      in
      List.iter
        (fun v -> Hashtbl.replace buckets 0 (ISet.add v (bucket 0)))
        (Graph.vertices g);
      let max_w = ref 0 in
      let visit_order = ref [] in
      for _ = 1 to n do
        let rec pick w =
          if w < 0 then None
          else
            let s =
              ISet.filter (fun v -> not (Hashtbl.mem visited v)) (bucket w)
            in
            Hashtbl.replace buckets w s;
            match ISet.choose_opt s with
            | Some v -> Some (v, w)
            | None -> pick (w - 1)
        in
        match pick !max_w with
        | None -> assert false
        | Some (v, w) ->
            max_w := w;
            Hashtbl.replace visited v ();
            visit_order := v :: !visit_order;
            ISet.iter
              (fun u ->
                if not (Hashtbl.mem visited u) then begin
                  let wu = Hashtbl.find weight u in
                  Hashtbl.replace weight u (wu + 1);
                  Hashtbl.replace buckets (wu + 1)
                    (ISet.add u (bucket (wu + 1)));
                  if wu + 1 > !max_w then max_w := wu + 1
                end)
              (Graph.neighbors g v)
      done;
      !visit_order
    end

  let is_perfect_elimination_order g order =
    if
      List.length order <> Graph.num_vertices g
      || not (List.for_all (Graph.mem_vertex g) order)
    then false
    else
      let position, later = later_neighbors g order in
      List.for_all
        (fun v ->
          let ln = later v in
          match
            ISet.fold
              (fun u best ->
                match best with
                | Some b
                  when Hashtbl.find position b <= Hashtbl.find position u ->
                    best
                | _ -> Some u)
              ln None
          with
          | None -> true
          | Some follower ->
              ISet.subset (ISet.remove follower ln) (Graph.neighbors g follower))
        order

  let is_chordal g = is_perfect_elimination_order g (mcs_order g)
end
