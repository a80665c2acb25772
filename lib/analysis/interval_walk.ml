module Flat = Rc_graph.Flat
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing

(* Lazy range-add / range-max segment tree over positions. *)
module Segtree = struct
  type t = { n : int; mx : int array; lz : int array }

  let create (values : int array) =
    let n = max 1 (Array.length values) in
    let t = { n; mx = Array.make (4 * n) 0; lz = Array.make (4 * n) 0 } in
    let rec build node l r =
      if l = r then
        t.mx.(node) <- (if l < Array.length values then values.(l) else 0)
      else begin
        let m = (l + r) / 2 in
        build (2 * node) l m;
        build ((2 * node) + 1) (m + 1) r;
        t.mx.(node) <- max t.mx.(2 * node) t.mx.((2 * node) + 1)
      end
    in
    build 1 0 (n - 1);
    t

  let rec add t node l r ql qr v =
    if qr < l || r < ql then ()
    else if ql <= l && r <= qr then begin
      t.mx.(node) <- t.mx.(node) + v;
      t.lz.(node) <- t.lz.(node) + v
    end
    else begin
      let m = (l + r) / 2 in
      add t (2 * node) l m ql qr v;
      add t ((2 * node) + 1) (m + 1) r ql qr v;
      t.mx.(node) <- t.lz.(node) + max t.mx.(2 * node) t.mx.((2 * node) + 1)
    end

  let rec query t node l r ql qr =
    if qr < l || r < ql then min_int
    else if ql <= l && r <= qr then t.mx.(node)
    else begin
      let m = (l + r) / 2 in
      let sub =
        max (query t (2 * node) l m ql qr)
          (query t ((2 * node) + 1) (m + 1) r ql qr)
      in
      if sub = min_int then min_int else t.lz.(node) + sub
    end

  let range_add t l r v = if l <= r then add t 1 0 (t.n - 1) l r v
  let range_max t l r = if l > r then min_int else query t 1 0 (t.n - 1) l r
end

let coalesce ~order (p : Problem.t) =
  (* Queries only, so the problem's kernel itself, not a copy. *)
  let f = Problem.kernel p in
  let n = Flat.num_live f in
  let m = Array.length order in
  if m <> n then
    invalid_arg "Interval_walk.coalesce: order size mismatch";
  let pos = Array.make (max 1 (Flat.capacity f)) (-1) in
  Array.iteri
    (fun i v ->
      let d =
        match Flat.index f v with
        | d -> d
        | exception Not_found ->
            invalid_arg "Interval_walk.coalesce: order vertex not in graph"
      in
      if pos.(d) >= 0 then
        invalid_arg "Interval_walk.coalesce: duplicate vertex in order";
      pos.(d) <- i)
    order;
  (* The implicit model: position p spans [p .. right.(p)]. *)
  let right = Array.init (max 1 m) (fun i -> i) in
  for i = 0 to m - 1 do
    Flat.iter_neighbors f (Flat.index f order.(i)) (fun w ->
        let q = pos.(w) in
        if q > right.(i) then right.(i) <- q)
  done;
  let cover = Array.make (max 1 (m + 1)) 0 in
  for i = 0 to m - 1 do
    cover.(i) <- cover.(i) + 1;
    cover.(right.(i) + 1) <- cover.(right.(i) + 1) - 1
  done;
  for i = 1 to m - 1 do
    cover.(i) <- cover.(i) + cover.(i - 1)
  done;
  let tree = Segtree.create (Array.sub cover 0 (max 1 m)) in
  (* Union-find over positions, classes kept convex: [lo/hi] are hull
     bounds, valid at roots. *)
  let parent = Array.init (max 1 m) (fun i -> i) in
  let lo = Array.init (max 1 m) (fun i -> i) in
  let hi = Array.init (max 1 m) (fun i -> right.(i)) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let sorted =
    List.sort
      (fun (a : Problem.affinity) (b : Problem.affinity) ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      p.affinities
  in
  List.iter
    (fun (a : Problem.affinity) ->
      let ru = find pos.(Flat.index f a.u)
      and rv = find pos.(Flat.index f a.v) in
      if ru <> rv then begin
        let first, second = if lo.(ru) <= lo.(rv) then (ru, rv) else (rv, ru) in
        if hi.(first) < lo.(second) then begin
          (* Disjoint hulls: mergeable iff the gap stays under k after
             the fill. *)
          let gl = hi.(first) + 1 and gr = lo.(second) - 1 in
          let fits = gl > gr || Segtree.range_max tree gl gr <= p.k - 1 in
          if fits then begin
            Segtree.range_add tree gl gr 1;
            parent.(second) <- first;
            hi.(first) <- hi.(second)
          end
        end
      end)
    sorted;
  (* Materialize classes in label space and re-derive the solution on
     the original problem. *)
  let members = Hashtbl.create 16 in
  for i = m - 1 downto 0 do
    let r = find i in
    let cur = match Hashtbl.find_opt members r with Some l -> l | None -> [] in
    Hashtbl.replace members r (order.(i) :: cur)
  done;
  let classes =
    Hashtbl.fold
      (fun r mem acc ->
        match mem with
        | [] | [ _ ] -> acc
        | _ -> (order.(r), mem) :: acc)
      members []
  in
  Coalescing.solution_of_state p (Coalescing.of_classes p classes)
