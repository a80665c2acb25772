module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat
module ISet = Graph.ISet
module IMap = Graph.IMap

type rule = Briggs_only | George_only | Briggs_and_george

type result = {
  solution : Coalescing.solution;
  coloring : Rc_graph.Coloring.coloring;
  spilled : Graph.vertex list;
  rounds : int;
}

(* Node locations, one per node at any time (Appel's invariant). *)
type location =
  | Simplify_wl
  | Freeze_wl
  | Spill_wl
  | On_stack
  | Coalesced_node

type move_state = Worklist_m | Active_m | Coalesced_m | Constrained_m | Frozen_m

(* The whole context is flat: nodes are dense indices into [f] (the
   mutable adjacency, which grows as combine adds edges) and every
   per-node attribute is an array read.  Only the worklists stay as
   integer sets — they are small, and min-element selection keeps the
   processing order deterministic (indices preserve the vertex order,
   so the order matches the previous node-id-keyed implementation). *)
type ctx = {
  k : int;
  rule : rule;
  f : Flat.t; (* adjacency + O(1) mem_edge over dense indices *)
  degree : int array; (* IRC's degree, maintained by the worklist logic *)
  where : location array;
  alias : int array;
  moves : Problem.affinity array;
  move_u : int array; (* endpoint indices of each move *)
  move_v : int array;
  mstate : move_state array;
  move_list : int list array; (* node -> move indices *)
  mutable simplify_wl : ISet.t;
  mutable freeze_wl : ISet.t;
  mutable spill_wl : ISet.t;
  mutable worklist_moves : ISet.t;
  mutable stack : int list;
}

let rec get_alias c n =
  if c.where.(n) = Coalesced_node then get_alias c c.alias.(n) else n

let in_play c m =
  match c.where.(m) with
  | On_stack | Coalesced_node -> false
  | Simplify_wl | Freeze_wl | Spill_wl -> true

(* Neighbors still in play: not on the stack, not coalesced away. *)
let iter_adjacent c n fn =
  Flat.iter_neighbors c.f n (fun m -> if in_play c m then fn m)

let live_move c i =
  match c.mstate.(i) with Active_m | Worklist_m -> true | _ -> false

let node_moves c n = List.filter (live_move c) c.move_list.(n)

(* Hot (every degree decrement and worklist push): no filtered list. *)
let move_related c n = List.exists (live_move c) c.move_list.(n)

let enable_moves_one c n =
  List.iter
    (fun i ->
      if c.mstate.(i) = Active_m then begin
        c.mstate.(i) <- Worklist_m;
        c.worklist_moves <- ISet.add i c.worklist_moves
      end)
    (node_moves c n)

let set_location c n loc =
  (match c.where.(n) with
  | Simplify_wl -> c.simplify_wl <- ISet.remove n c.simplify_wl
  | Freeze_wl -> c.freeze_wl <- ISet.remove n c.freeze_wl
  | Spill_wl -> c.spill_wl <- ISet.remove n c.spill_wl
  | On_stack | Coalesced_node -> ());
  c.where.(n) <- loc;
  match loc with
  | Simplify_wl -> c.simplify_wl <- ISet.add n c.simplify_wl
  | Freeze_wl -> c.freeze_wl <- ISet.add n c.freeze_wl
  | Spill_wl -> c.spill_wl <- ISet.add n c.spill_wl
  | On_stack | Coalesced_node -> ()

let decrement_degree c m =
  let d = c.degree.(m) in
  c.degree.(m) <- d - 1;
  if d = c.k then begin
    enable_moves_one c m;
    iter_adjacent c m (fun n -> enable_moves_one c n);
    if c.where.(m) = Spill_wl then
      if move_related c m then set_location c m Freeze_wl
      else set_location c m Simplify_wl
  end

let add_edge c u v =
  if u <> v && not (Flat.mem_edge c.f u v) then begin
    Flat.add_edge c.f u v;
    c.degree.(u) <- c.degree.(u) + 1;
    c.degree.(v) <- c.degree.(v) + 1
  end

let add_work_list c u =
  if (not (move_related c u)) && c.degree.(u) < c.k then
    set_location c u Simplify_wl

(* George: every in-play neighbor t of [a] is low-degree or already a
   neighbor of [b] (an O(1) bitmatrix probe). *)
let ok_george c a b =
  let ok = ref true in
  iter_adjacent c a (fun t ->
      if !ok && c.degree.(t) >= c.k && not (Flat.mem_edge c.f t b) then
        ok := false);
  !ok

(* Briggs on the union neighborhood; deduplication between the two
   adjacency rows is the O(1) membership probe. *)
let conservative_briggs c u v =
  let high = ref 0 in
  iter_adjacent c u (fun n -> if c.degree.(n) >= c.k then incr high);
  iter_adjacent c v (fun n ->
      if (not (Flat.mem_edge c.f u n)) && c.degree.(n) >= c.k then incr high);
  !high < c.k

let combine c u v =
  set_location c v Coalesced_node;
  c.alias.(v) <- u;
  c.move_list.(u) <- c.move_list.(u) @ c.move_list.(v);
  enable_moves_one c v;
  (* [v]'s adjacency row is not mutated by add_edge/decrement_degree on
     other nodes, so iterating it live is safe. *)
  iter_adjacent c v (fun t ->
      add_edge c t u;
      decrement_degree c t);
  if c.degree.(u) >= c.k && c.where.(u) = Freeze_wl then
    set_location c u Spill_wl

let freeze_moves c u =
  List.iter
    (fun i ->
      let x = get_alias c c.move_u.(i) and y = get_alias c c.move_v.(i) in
      let v = if y = get_alias c u then x else y in
      (match c.mstate.(i) with
      | Active_m -> c.mstate.(i) <- Frozen_m
      | Worklist_m ->
          c.worklist_moves <- ISet.remove i c.worklist_moves;
          c.mstate.(i) <- Frozen_m
      | Coalesced_m | Constrained_m | Frozen_m -> ());
      if (not (move_related c v)) && c.degree.(v) < c.k then
        set_location c v Simplify_wl)
    (node_moves c u)

let simplify c =
  match ISet.min_elt_opt c.simplify_wl with
  | None -> false
  | Some n ->
      set_location c n On_stack;
      c.stack <- n :: c.stack;
      iter_adjacent c n (fun m -> decrement_degree c m);
      true

let coalesce_step c =
  match ISet.min_elt_opt c.worklist_moves with
  | None -> false
  | Some i ->
      c.worklist_moves <- ISet.remove i c.worklist_moves;
      let x = get_alias c c.move_u.(i) and y = get_alias c c.move_v.(i) in
      if x = y then begin
        c.mstate.(i) <- Coalesced_m;
        add_work_list c x
      end
      else if Flat.mem_edge c.f x y then begin
        c.mstate.(i) <- Constrained_m;
        add_work_list c x;
        add_work_list c y
      end
      else begin
        let ok =
          match c.rule with
          | Briggs_only -> conservative_briggs c x y
          | George_only -> ok_george c x y || ok_george c y x
          | Briggs_and_george ->
              conservative_briggs c x y || ok_george c x y || ok_george c y x
        in
        if ok then begin
          c.mstate.(i) <- Coalesced_m;
          combine c x y;
          add_work_list c x
        end
        else c.mstate.(i) <- Active_m
      end;
      true

let freeze c =
  match ISet.min_elt_opt c.freeze_wl with
  | None -> false
  | Some u ->
      set_location c u Simplify_wl;
      freeze_moves c u;
      true

let select_spill c =
  (* Spill-metric: prefer high current degree, low move weight.  Each
     candidate's metric is computed exactly once (the previous
     implementation recomputed both sides per comparison). *)
  if ISet.is_empty c.spill_wl then false
  else begin
    let best =
      ISet.fold
        (fun n best ->
          let move_weight =
            List.fold_left
              (fun acc i -> acc + c.moves.(i).weight)
              0 c.move_list.(n)
          in
          let metric =
            float_of_int c.degree.(n) /. float_of_int (1 + move_weight)
          in
          match best with
          | Some (_, bm) when bm >= metric -> best
          | _ -> Some (n, metric))
        c.spill_wl None
    in
    let m = match best with Some (n, _) -> n | None -> assert false in
    set_location c m Simplify_wl;
    freeze_moves c m;
    true
  end

(* One build/simplify/select round on the given instance. *)
let round ~rule ~biased (p : Problem.t) =
  let f = Problem.flat p in
  let n = Flat.capacity f in
  let moves = Array.of_list p.affinities in
  let nmoves = Array.length moves in
  let c =
    {
      k = p.k;
      rule;
      f;
      degree = Array.init n (Flat.degree f);
      where = Array.make n Simplify_wl;
      alias = Array.init n Fun.id;
      moves;
      move_u = Array.map (fun (a : Problem.affinity) -> Flat.index f a.u) moves;
      move_v = Array.map (fun (a : Problem.affinity) -> Flat.index f a.v) moves;
      mstate = Array.make nmoves Active_m;
      move_list = Array.make n [];
      simplify_wl = ISet.empty;
      freeze_wl = ISet.empty;
      spill_wl = ISet.empty;
      worklist_moves = ISet.empty;
      stack = [];
    }
  in
  (* Build: the interference edges are already in [f]; only the moves
     need classifying. *)
  for i = 0 to nmoves - 1 do
    let iu = c.move_u.(i) and iv = c.move_v.(i) in
    if not (Flat.mem_edge f iu iv) then begin
      c.mstate.(i) <- Worklist_m;
      c.worklist_moves <- ISet.add i c.worklist_moves;
      c.move_list.(iu) <- i :: c.move_list.(iu);
      c.move_list.(iv) <- i :: c.move_list.(iv)
    end
    else c.mstate.(i) <- Constrained_m
  done;
  (* MakeWorklist *)
  for v = 0 to n - 1 do
    if c.degree.(v) >= c.k then set_location c v Spill_wl
    else if move_related c v then set_location c v Freeze_wl
    else set_location c v Simplify_wl
  done;
  (* Main loop *)
  let rec loop () =
    if simplify c then loop ()
    else if coalesce_step c then loop ()
    else if freeze c then loop ()
    else if select_spill c then loop ()
  in
  loop ();
  (* AssignColors.  With [biased], prefer a color already held by a
     move partner (biased coloring, mentioned in the paper's Section 1):
     uncoalesced moves then still have a chance to disappear. *)
  let colors = Array.make n (-1) in
  let spilled = ref [] in
  List.iter
    (fun v ->
      let ok = Array.make c.k true in
      Flat.iter_neighbors f v (fun w ->
          let wa = get_alias c w in
          if colors.(wa) >= 0 then ok.(colors.(wa)) <- false);
      let preferred () =
        if not biased then None
        else
          List.fold_left
            (fun acc i ->
              match acc with
              | Some _ -> acc
              | None ->
                  let partner =
                    if get_alias c c.move_u.(i) = v then
                      get_alias c c.move_v.(i)
                    else get_alias c c.move_u.(i)
                  in
                  let col = colors.(partner) in
                  if col >= 0 && col < c.k && ok.(col) then Some col else None)
            None c.move_list.(v)
      in
      let rec first i =
        if i >= c.k then None else if ok.(i) then Some i else first (i + 1)
      in
      match (preferred (), first 0) with
      | Some col, _ -> colors.(v) <- col
      | None, Some col -> colors.(v) <- col
      | None, None -> spilled := Flat.label f v :: !spilled)
    c.stack;
  (* Push colors out to coalesced members, and collect each alias's
     members (descending, so the prepends leave them ascending). *)
  let coloring = ref IMap.empty in
  let absorbed = Array.make n [] in
  for v = n - 1 downto 0 do
    if c.where.(v) = Coalesced_node then begin
      let a = get_alias c v in
      absorbed.(a) <- Flat.label f v :: absorbed.(a);
      if colors.(a) >= 0 then colors.(v) <- colors.(a)
    end;
    if colors.(v) >= 0 then
      coloring := IMap.add (Flat.label f v) colors.(v) !coloring
  done;
  let classes = ref [] in
  for a = n - 1 downto 0 do
    if absorbed.(a) <> [] then
      classes := (Flat.label f a, absorbed.(a)) :: !classes
  done;
  (!coloring, List.rev !spilled, !classes)

let allocate ?(rule = Briggs_and_george) ?(biased = false) (p : Problem.t) =
  (* Rebuild loop: restart on the instance without actually-spilled
     vertices until the select phase colors everything. *)
  let rec go (q : Problem.t) all_spilled rounds =
    let coloring, spilled, classes = round ~rule ~biased q in
    match spilled with
    | [] ->
        (* The coalesced nodes, merged into their aliases on a fresh
           copy of the instance's kernel: IRC's own graph carries the
           edges [combine] added, so it cannot serve as the answer. *)
        let st = Coalescing.of_classes q classes in
        (* Report the solution against the original problem: affinities
           with a spilled endpoint count as given up. *)
        let coalesced, gave_up =
          List.partition
            (fun (a : Problem.affinity) ->
              Graph.mem_vertex q.graph a.u
              && Graph.mem_vertex q.graph a.v
              && Coalescing.same_class st a.u a.v)
            p.affinities
        in
        {
          solution = { Coalescing.state = st; coalesced; gave_up };
          coloring;
          spilled = all_spilled;
          rounds;
        }
    | _ ->
        let graph = List.fold_left Graph.remove_vertex q.graph spilled in
        let affinities =
          List.filter_map
            (fun (a : Problem.affinity) ->
              if Graph.mem_vertex graph a.u && Graph.mem_vertex graph a.v then
                Some ((a.u, a.v), a.weight)
              else None)
            q.affinities
        in
        let q = Problem.make ~graph ~affinities ~k:q.k in
        go q (all_spilled @ spilled) (rounds + 1)
  in
  go p [] 1

let same_color_moves result affinities =
  List.filter
    (fun (a : Problem.affinity) ->
      match
        (IMap.find_opt a.u result.coloring, IMap.find_opt a.v result.coloring)
      with
      | Some cu, Some cv -> cu = cv
      | _ -> false)
    affinities
