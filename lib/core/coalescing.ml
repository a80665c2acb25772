module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat
module IMap = Graph.IMap
module ISet = Graph.ISet

(* The merged graph G_f: the problem's own graph (from [initial]), whose
   flat form is the problem's kernel; persistent (from [merge]); or the
   flat graph a search built, frozen — never written again — with the
   persistent view built on the first [graph] call.  Two domains racing
   on that call both build equal graphs; the memo keeps one of them. *)
type merged =
  | Unmerged of Problem.t
  | Persistent of Graph.t
  | Frozen of { flat : Flat.t; view : Graph.t option Atomic.t }

type state = {
  merged : merged;
  repr : Graph.vertex IMap.t; (* original vertex -> current representative *)
  members : ISet.t IMap.t;
      (* representative -> its original members, for classes of two or
         more; a representative absent here stands only for itself *)
}

let singletons g =
  List.fold_left (fun m v -> IMap.add v v m) IMap.empty (Graph.vertices g)

let initial (p : Problem.t) =
  { merged = Unmerged p; repr = singletons p.graph; members = IMap.empty }

let find st v =
  match IMap.find_opt v st.repr with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Coalescing.find: unknown vertex %d" v)

let frozen flat = Frozen { flat; view = Atomic.make None }

let graph st =
  match st.merged with
  | Unmerged p -> p.graph
  | Persistent g -> g
  | Frozen { flat; view } -> (
      match Atomic.get view with
      | Some g -> g
      | None ->
          let g = Flat.to_graph flat in
          Atomic.set view (Some g);
          g)

let snapshot st =
  match st.merged with
  | Frozen { flat; _ } -> Some flat
  | Unmerged _ | Persistent _ -> None

let kernel st =
  match st.merged with
  | Unmerged p -> Some (Problem.kernel p)
  | Persistent _ | Frozen _ -> None

let same_class st u v = find st u = find st v

let members_of members r =
  match IMap.find_opt r members with Some s -> s | None -> ISet.singleton r

(* Only the absorbed class is re-pointed: O(|class of rv| * log n). *)
let merge st u v =
  let ru = find st u and rv = find st v in
  if ru = rv then None
  else
    let g = graph st in
    if Graph.mem_edge g ru rv then None
    else
      let moved = members_of st.members rv in
      let repr = ISet.fold (fun m repr -> IMap.add m ru repr) moved st.repr in
      let members =
        IMap.add ru
          (ISet.union (members_of st.members ru) moved)
          (IMap.remove rv st.members)
      in
      Some { merged = Persistent (Graph.merge g ru rv); repr; members }

(* Representatives are exactly the vertices they map to themselves. *)
let classes st =
  IMap.fold
    (fun v r acc ->
      if r = v then (v, ISet.elements (members_of st.members v)) :: acc else acc)
    st.repr []
  |> List.rev

let class_of st v = ISet.elements (members_of st.members (find st v))

(* Build a state directly from explicit interference-free classes:
   merge each class into its representative on a copy of the problem's
   kernel, which the state then keeps frozen, instead of a chain of
   persistent [merge]s.  Vertices not named by any class stay
   singletons.  The optimistic scheme, IRC and the presolver realize
   their answers this way. *)
let of_classes (p : Problem.t) cls =
  let f = Problem.flat p in
  List.iter
    (fun (rep, members) ->
      let irep = Flat.index f rep in
      List.iter
        (fun v -> if v <> rep then Flat.merge f irep (Flat.index f v))
        members)
    cls;
  let repr =
    List.fold_left
      (fun m (rep, members) ->
        List.fold_left (fun m v -> IMap.add v rep m) m members)
      (singletons p.graph) cls
  in
  (* Group the non-trivial entries only: linear in n plus the named
     members' insertions. *)
  let members =
    IMap.fold
      (fun v r acc ->
        if r = v then acc
        else IMap.add r (ISet.add v (members_of acc r)) acc)
      repr IMap.empty
  in
  { merged = frozen f; repr; members }

(* ------------------------------------------------------------------ *)
(* Speculation: the shared flat merge-search context                    *)
(* ------------------------------------------------------------------ *)

module Speculation = struct
  (* Rebind the state-level operations the submodule shadows. *)
  let state_find = find
  let state_merge = merge

  type spec = {
    base : state;
    f : Flat.t;
    parent : int array;
        (* Union-find over flat indices for the merges performed on [f].
           Unions always attach the surviving flat vertex as the root
           ([parent.(iv) <- iu] exactly when [Flat.merge f iu iv] ran),
           and there is no path compression: a rollback then only has to
           re-root the [iv] of each undone merge, newest first. *)
    mutable merges : (int * int) array; (* (iu, iv) pairs, oldest first *)
    mutable mlen : int;
    mutable cache : Rule_cache.t option;
        (* Attached rule cache, if any: merges feed it their
           invalidation sets (before the rows change) and marks carry a
           cache mark, so its counters roll back in lockstep with the
           flat graph. *)
  }

  type mark = {
    fcp : Flat.checkpoint;
    mmark : int;
    cmark : Rule_cache.mark option;
  }

  (* Speculation events for the kernel sanitizer (Rc_check.Sanitize).
     Same contract as Flat.set_monitor: a domain-local hook, [None] in
     release builds, fired after the event completes, once per merge/
     rollback/release/commit — never inside an edge loop.  Domain-local
     (not a global ref) so sweep-engine worker domains can each run a
     sanitizer without racing on shared audit state. *)
  type event = Merged | Rolled_back | Released | Committed of state

  let monitor : (event -> spec -> unit) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let set_monitor m = Domain.DLS.set monitor m

  let notify ev s =
    match Domain.DLS.get monitor with None -> () | Some f -> f ev s

  let of_state ?rows st =
    let f =
      match st.merged with
      | Unmerged p -> Problem.flat ?rows p
      | Persistent g -> Flat.of_graph ?rows g
      | Frozen { flat; _ } -> Flat.compact ?rows flat
    in
    {
      base = st;
      f;
      parent = Array.init (Flat.capacity f) Fun.id;
      merges = [||];
      mlen = 0;
      cache = None;
    }

  let flat s = s.f
  let base s = s.base

  let attach_cache s c =
    if s.cache <> None then invalid_arg "Speculation.attach_cache: already attached";
    if Flat.checkpoint_depth s.f <> 0 then
      invalid_arg "Speculation.attach_cache: checkpoints open";
    s.cache <- Some c

  let cache s = s.cache

  let rec root s i = if s.parent.(i) = i then i else root s s.parent.(i)

  let repr s v = root s (Flat.index s.f (state_find s.base v))
  let root_index s i = root s i
  let label s i = Flat.label s.f i
  let same_class s u v = repr s u = repr s v

  let push_merge s iu iv =
    if s.mlen = Array.length s.merges then begin
      let b = Array.make (max 16 (2 * s.mlen)) (iu, iv) in
      Array.blit s.merges 0 b 0 s.mlen;
      s.merges <- b
    end;
    s.merges.(s.mlen) <- (iu, iv);
    s.mlen <- s.mlen + 1

  let merge_roots s iu iv =
    (* The cache reads the rows of both roots, so it goes first. *)
    (match s.cache with Some c -> Rule_cache.pre_merge c iu iv | None -> ());
    Flat.merge s.f iu iv;
    s.parent.(iv) <- iu;
    push_merge s iu iv;
    notify Merged s

  let merge s u v =
    let iu = repr s u and iv = repr s v in
    if iu = iv || Flat.mem_edge s.f iu iv then false
    else begin
      merge_roots s iu iv;
      true
    end

  let mark s =
    {
      fcp = Flat.checkpoint s.f;
      mmark = s.mlen;
      cmark = (match s.cache with Some c -> Some (Rule_cache.mark c) | None -> None);
    }

  let rollback s m =
    (match (s.cache, m.cmark) with
    | Some c, Some cm -> Rule_cache.rollback c cm
    | _ -> ());
    Flat.rollback s.f m.fcp;
    while s.mlen > m.mmark do
      s.mlen <- s.mlen - 1;
      let _, iv = s.merges.(s.mlen) in
      s.parent.(iv) <- iv
    done;
    notify Rolled_back s

  let release s m =
    (match (s.cache, m.cmark) with
    | Some c, Some cm -> Rule_cache.release c cm
    | _ -> ());
    Flat.release s.f m.fcp;
    notify Released s

  let merge_log s =
    List.init s.mlen (fun i ->
        let iu, iv = s.merges.(i) in
        (Flat.label s.f iu, Flat.label s.f iv))

  (* Replay a merge log onto a persistent state.  Each entry was
     validated against the very graph it is applied to, so no merge can
     fail. *)
  let replay st log =
    List.fold_left
      (fun st (u, v) ->
        match state_merge st u v with
        | Some st' -> st'
        | None -> assert false)
      st log

  (* Commit without replay: the flat mirror already IS the merged
     graph, and the union-find composed with the base representative
     map IS the new representative map.  The state keeps a copy of the
     mirror — never the mirror itself, which later merges and rollbacks
     of this spec keep rewriting — and builds the persistent graph only
     if someone asks for it.  The member index changes only for the
     classes the log touched: each merged-away base class joins its
     final root's, O(absorbed members * log) on top of the O(n) map.
     Replaying [merge_log] instead would pay one persistent
     [Graph.merge] per accepted merge.  The sanitizer's [Committed]
     audit still replays the log independently and compares, so the
     equivalence stays machine-checked. *)
  let commit s =
    let merged = frozen (Flat.copy s.f) in
    let label i = Flat.label s.f i in
    let base = s.base in
    let repr = IMap.map (fun r -> label (root s (Flat.index s.f r))) base.repr in
    (* Final root index -> the members it gained. *)
    let joined = Hashtbl.create 16 in
    let members = ref base.members in
    for e = 0 to s.mlen - 1 do
      let _, iv = s.merges.(e) in
      let rv = label iv and ir = root s iv in
      let gained = Option.value (Hashtbl.find_opt joined ir) ~default:[] in
      Hashtbl.replace joined ir
        (ISet.fold List.cons (members_of base.members rv) gained);
      members := IMap.remove rv !members
    done;
    let members =
      Hashtbl.fold
        (fun ir gained members ->
          let r = label ir in
          IMap.add r
            (ISet.union (members_of base.members r) (ISet.of_list gained))
            members)
        joined !members
    in
    let st = { merged; repr; members } in
    notify (Committed st) s;
    st

  (* Full structural audit of the speculative context: union-find shape,
     merge-log/parent/flat agreement.  O(capacity); checked builds and
     tests only. *)
  let self_check s =
    let fail fmt =
      Printf.ksprintf (fun m -> failwith ("Speculation.self_check: " ^ m)) fmt
    in
    let cap = Flat.capacity s.f in
    if Array.length s.parent <> cap then
      fail "parent array length %d, capacity %d" (Array.length s.parent) cap;
    if s.mlen < 0 || s.mlen > Array.length s.merges then
      fail "merge-log length %d outside its buffer" s.mlen;
    (* Parent acyclicity: color 0 = unvisited, 1 = on the current walk,
       2 = proven rooted. *)
    let color = Array.make cap 0 in
    for i = 0 to cap - 1 do
      if color.(i) = 0 then begin
        let path = ref [] in
        let j = ref i in
        while color.(!j) = 0 do
          color.(!j) <- 1;
          path := !j :: !path;
          let p = s.parent.(!j) in
          if p < 0 || p >= cap then
            fail "parent %d of index %d out of range" p !j;
          if p = !j then color.(!j) <- 2 else j := p
        done;
        if color.(!j) = 1 then fail "union-find cycle through index %d" !j;
        List.iter (fun v -> color.(v) <- 2) !path
      end
    done;
    (* Each live merge-log entry (iu, iv): the link is still in place and
       iv is gone from the flat mirror; each iv is merged away once. *)
    let merged_away = Array.make cap false in
    for idx = 0 to s.mlen - 1 do
      let iu, iv = s.merges.(idx) in
      if iu < 0 || iu >= cap || iv < 0 || iv >= cap then
        fail "merge-log entry %d = (%d, %d) out of range" idx iu iv;
      if s.parent.(iv) <> iu then
        fail "merge-log entry %d: parent of %d is %d, expected %d" idx iv
          s.parent.(iv) iu;
      if Flat.is_live s.f iv then
        fail "merged-away index %d still live in the flat mirror" iv;
      if merged_away.(iv) then fail "index %d merged away twice" iv;
      merged_away.(iv) <- true
    done;
    (* Conversely, an index may only point away from itself if a live
       log entry re-rooted it (rollback restores self-parenting). *)
    for i = 0 to cap - 1 do
      if (not merged_away.(i)) && s.parent.(i) <> i then
        fail "index %d re-rooted to %d without a live merge-log entry" i
          s.parent.(i)
    done
end

type solution = {
  state : state;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
}

let solution_of_state (p : Problem.t) st =
  let coalesced, gave_up =
    List.partition
      (fun (a : Problem.affinity) -> same_class st a.u a.v)
      p.affinities
  in
  { state = st; coalesced; gave_up }

let coalesced_weight s =
  List.fold_left (fun acc (a : Problem.affinity) -> acc + a.weight) 0 s.coalesced

let remaining_weight s =
  List.fold_left (fun acc (a : Problem.affinity) -> acc + a.weight) 0 s.gave_up

let check (p : Problem.t) s =
  let st = s.state in
  let ( let* ) r k = match r with Ok () -> k () | Error _ as e -> e in
  (* Every original vertex tracked. *)
  let* () =
    if List.for_all (fun v -> IMap.mem v st.repr) (Graph.vertices p.graph)
    then Ok ()
    else Error "merge state does not cover the problem graph"
  in
  (* No interference inside a class: every original edge must separate
     classes. *)
  let* () =
    Graph.fold_edges
      (fun u v acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if find st u = find st v then
              Error (Printf.sprintf "interfering vertices %d and %d coalesced" u v)
            else Ok ())
      p.graph (Ok ())
  in
  (* The coalesced graph must contain the projected edges. *)
  let g = graph st in
  let* () =
    Graph.fold_edges
      (fun u v acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if Graph.mem_edge g (find st u) (find st v) then Ok ()
            else Error "coalesced graph is missing a projected interference")
      p.graph (Ok ())
  in
  (* Affinity classification must match the state. *)
  let classified_ok (a : Problem.affinity) expected =
    same_class st a.u a.v = expected
  in
  if
    List.for_all (fun a -> classified_ok a true) s.coalesced
    && List.for_all (fun a -> classified_ok a false) s.gave_up
    && List.length s.coalesced + List.length s.gave_up
       = List.length p.affinities
  then Ok ()
  else Error "solution affinity classification inconsistent"

(* A frozen state, or an unmerged one through its problem's kernel,
   answers on its flat graph directly, read-only: no persistent build,
   no round trip back through [Flat.of_graph]. *)
let is_conservative (p : Problem.t) s =
  match s.state.merged with
  | Persistent g -> Rc_graph.Greedy_k.is_greedy_k_colorable g p.k
  | Unmerged q ->
      Rc_graph.Greedy_k.flat_is_greedy_k_colorable_readonly
        (Problem.kernel q) p.k
  | Frozen { flat; _ } ->
      Rc_graph.Greedy_k.flat_is_greedy_k_colorable_readonly flat p.k
