module Graph = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k
module Spec = Coalescing.Speculation

(* ------------------------------------------------------------------ *)
(* Literals: variable v (one per sorted affinity) as positive literal
   2v and negative literal 2v+1.  A clause is an int array of literals
   read as a disjunction.                                              *)
(* ------------------------------------------------------------------ *)

let pos v = 2 * v
let neg v = (2 * v) + 1
let var_of l = l lsr 1
let negate l = l lxor 1
let is_pos l = l land 1 = 0

exception Exhausted
(* Level-0 conflict: the clause set — all implied by "conservative and
   strictly better than the incumbent" — is unsatisfiable, so the
   incumbent weight is the optimum. *)

type solver = {
  p : Problem.t;
  aff : Problem.affinity array; (* Exact.sorted_affinities order *)
  m : int; (* number of variables *)
  total : int; (* sum of all weights *)
  (* Assignment trail. *)
  assign : int array; (* -1 unassigned / 0 false / 1 true *)
  level : int array;
  reason : int array; (* clause id, -1 for decisions *)
  trail : int array; (* literals, in assignment order *)
  mutable trail_n : int;
  mutable qhead : int;
  trail_lim : int array; (* trail_n at each decision *)
  mutable decision_level : int;
  mutable loss : int; (* sum of weights of variables assigned false *)
  mutable best : int; (* incumbent objective value *)
  (* Clause store + two-watched-literal lists (indexed by literal). *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  watches : int list array;
  seen : bool array; (* conflict-analysis scratch *)
  stop : unit -> bool;
  mutable ticks : int;
}

let make_solver ?(floor = -1) ~stop (p : Problem.t) =
  let aff, _suffix = Exact.sorted_affinities p in
  let m = Array.length aff in
  {
    p;
    aff;
    m;
    total = Array.fold_left (fun acc (a : Problem.affinity) -> acc + a.weight) 0 aff;
    assign = Array.make (max m 1) (-1);
    level = Array.make (max m 1) 0;
    reason = Array.make (max m 1) (-1);
    trail = Array.make (max m 1) 0;
    trail_n = 0;
    qhead = 0;
    trail_lim = Array.make (max m 1) 0;
    decision_level = 0;
    loss = 0;
    best = floor;
    clauses = Array.make 16 [||];
    n_clauses = 0;
    watches = Array.make (max (2 * m) 1) [];
    seen = Array.make (max m 1) false;
    stop;
    ticks = 0;
  }

let poll s =
  s.ticks <- s.ticks + 1;
  if s.ticks land 63 = 0 && s.stop () then raise Cancel.Stopped

let lit_value s l =
  let a = s.assign.(var_of l) in
  if a < 0 then -1 else if is_pos l then a else 1 - a

(* Record a clause; callers watch lits 0 and 1 (length >= 2 only). *)
let add_clause s lits =
  if s.n_clauses = Array.length s.clauses then begin
    let bigger = Array.make (2 * s.n_clauses) [||] in
    Array.blit s.clauses 0 bigger 0 s.n_clauses;
    s.clauses <- bigger
  end;
  s.clauses.(s.n_clauses) <- lits;
  let id = s.n_clauses in
  s.n_clauses <- id + 1;
  if Array.length lits >= 2 then begin
    s.watches.(lits.(0)) <- id :: s.watches.(lits.(0));
    s.watches.(lits.(1)) <- id :: s.watches.(lits.(1))
  end;
  id

let enqueue s lit ~reason =
  let v = var_of lit in
  assert (s.assign.(v) < 0);
  s.assign.(v) <- (if is_pos lit then 1 else 0);
  if not (is_pos lit) then s.loss <- s.loss + s.aff.(v).weight;
  s.level.(v) <- s.decision_level;
  s.reason.(v) <- reason;
  s.trail.(s.trail_n) <- lit;
  s.trail_n <- s.trail_n + 1

(* Pop the trail back to [lvl] decisions. *)
let backtrack_to s lvl =
  if s.decision_level > lvl then begin
    let keep = s.trail_lim.(lvl) in
    for i = s.trail_n - 1 downto keep do
      let v = var_of s.trail.(i) in
      if s.assign.(v) = 0 then s.loss <- s.loss - s.aff.(v).weight;
      s.assign.(v) <- -1
    done;
    s.trail_n <- keep;
    s.qhead <- keep;
    s.decision_level <- lvl
  end

(* Two-watched-literal unit propagation.  Returns the conflicting
   clause's literals, or None at fixpoint. *)
let propagate s =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_n do
    let fl = negate s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let watching = s.watches.(fl) in
    s.watches.(fl) <- [];
    let rec visit = function
      | [] -> ()
      | id :: rest -> (
          let lits = s.clauses.(id) in
          if lits.(0) = fl then begin
            lits.(0) <- lits.(1);
            lits.(1) <- fl
          end;
          (* Invariant here: lits.(1) = fl, now false. *)
          if lit_value s lits.(0) = 1 then begin
            s.watches.(fl) <- id :: s.watches.(fl);
            visit rest
          end
          else begin
            let n = Array.length lits in
            let w = ref 2 in
            while !w < n && lit_value s lits.(!w) = 0 do incr w done;
            if !w < n then begin
              (* Found a non-false replacement watch. *)
              lits.(1) <- lits.(!w);
              lits.(!w) <- fl;
              s.watches.(lits.(1)) <- id :: s.watches.(lits.(1));
              visit rest
            end
            else begin
              s.watches.(fl) <- id :: s.watches.(fl);
              match lit_value s lits.(0) with
              | 0 ->
                  (* All literals false: conflict; re-watch the rest. *)
                  conflict := Some lits;
                  List.iter
                    (fun id' -> s.watches.(fl) <- id' :: s.watches.(fl))
                    rest
              | _ ->
                  enqueue s lits.(0) ~reason:id;
                  visit rest
            end
          end)
    in
    visit watching
  done;
  !conflict

(* 1UIP conflict analysis: resolve the conflicting clause against the
   reasons of its current-level literals back to the first unique
   implication point, learn the asserting clause, and return it with
   its backjump level.  Precondition: at least one literal of [c] was
   assigned at the current (non-zero) decision level. *)
let analyze s c =
  let rest = ref [] in
  let counter = ref 0 in
  let p_lit = ref (-1) in
  let idx = ref (s.trail_n - 1) in
  let clause = ref c in
  let continue = ref true in
  while !continue do
    Array.iter
      (fun q ->
        if q <> !p_lit then begin
          let v = var_of q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            if s.level.(v) = s.decision_level then incr counter
            else rest := q :: !rest
          end
        end)
      !clause;
    while not s.seen.(var_of s.trail.(!idx)) do decr idx done;
    p_lit := s.trail.(!idx);
    decr idx;
    let v = var_of !p_lit in
    s.seen.(v) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else begin
      assert (s.reason.(v) >= 0);
      clause := s.clauses.(s.reason.(v))
    end
  done;
  let learnt = Array.of_list (negate !p_lit :: !rest) in
  List.iter (fun q -> s.seen.(var_of q) <- false) !rest;
  let bj = ref 0 in
  if Array.length learnt > 1 then begin
    (* Put a deepest-level literal second: it is the asserting clause's
       other watch, and its level is the backjump target. *)
    let k = ref 1 in
    for i = 2 to Array.length learnt - 1 do
      if s.level.(var_of learnt.(i)) > s.level.(var_of learnt.(!k)) then k := i
    done;
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!k);
    learnt.(!k) <- tmp;
    bj := s.level.(var_of learnt.(1))
  end;
  (learnt, !bj)

(* Resolve a falsified clause [c] (every literal false right now):
   learn, backjump, assert.  Raises Exhausted when [c] is falsified by
   level-0 assignments alone — the search space is proved empty. *)
let handle_conflict s c =
  let max_lvl =
    Array.fold_left (fun acc l -> max acc s.level.(var_of l)) 0 c
  in
  if Array.length c = 0 || max_lvl = 0 then raise Exhausted;
  (* Lazily-generated conflicts (objective, leaf witnesses) may be
     rooted below the current decision level; fall back first so the
     analysis invariant holds. *)
  if max_lvl < s.decision_level then backtrack_to s max_lvl;
  let learnt, bj = analyze s c in
  backtrack_to s bj;
  let id = add_clause s learnt in
  enqueue s learnt.(0) ~reason:id

(* The objective no-good at the current incumbent: any assignment
   improving on [best] must flip at least one currently-false variable
   to true.  (Sound for the final optimum too: [best] only grows.) *)
let objective_clause s =
  let lits = ref [] in
  for v = s.m - 1 downto 0 do
    if s.assign.(v) = 0 then lits := pos v :: !lits
  done;
  Array.of_list !lits

type leaf = Model of int | Refuted of int array

(* Evaluate a full assignment by replaying the chosen merges on a
   speculation context, in the shared branch order. *)
let evaluate s =
  let spec = Spec.of_state (Coalescing.initial s.p) in
  let performed = ref [] in
  let gained = ref 0 in
  let conflict = ref None in
  (try
     for i = 0 to s.m - 1 do
       if s.assign.(i) = 1 then begin
         let a = s.aff.(i) in
         gained := !gained + a.weight;
         if Spec.same_class spec a.u a.v then () (* transitive freebie *)
         else if Spec.merge spec a.u a.v then performed := i :: !performed
         else begin
           (* Classes of a.u and a.v interfere.  Any assignment that
              repeats every merge that built the two classes rebuilds
              supersets of them, so the interference persists: the
              no-good over those variables plus x_i is monotone. *)
           let lits = ref [ neg i ] in
           List.iter
             (fun j ->
               let b = s.aff.(j) in
               if Spec.same_class spec b.u a.u || Spec.same_class spec b.u a.v
               then lits := neg j :: !lits)
             !performed;
           conflict := Some (Array.of_list !lits);
           raise Exit
         end
       end
     done
   with Exit -> ());
  match !conflict with
  | Some c -> Refuted c
  | None ->
      let flat = Spec.flat spec in
      if Greedy_k.flat_is_greedy_k_colorable flat s.p.Problem.k then
        Model !gained
      else begin
        (* The merged graph has a k-core (elimination residue).  Let S
           be the original vertices whose class lies in it: the
           partition of S and the interference among its classes are
           fully determined by the variables touching S, and no other
           merge can attach to an S class — so the exact configuration
           of those variables is a no-good. *)
        let residue =
          match Greedy_k.flat_residue flat s.p.Problem.k with
          | Some r -> r
          | None -> assert false
        in
        let in_residue = Hashtbl.create 16 in
        List.iter (fun root -> Hashtbl.replace in_residue root ()) residue;
        let touches v = Hashtbl.mem in_residue (Spec.repr spec v) in
        let lits = ref [] in
        for i = s.m - 1 downto 0 do
          let a = s.aff.(i) in
          if touches a.u || touches a.v then
            lits := (if s.assign.(i) = 1 then neg i else pos i) :: !lits
        done;
        Refuted (Array.of_list !lits)
      end

let decide s =
  let v = ref 0 in
  while s.assign.(!v) >= 0 do incr v done;
  s.trail_lim.(s.decision_level) <- s.trail_n;
  s.decision_level <- s.decision_level + 1;
  (* Phase: try to coalesce first, like the branch-and-bound. *)
  enqueue s (pos !v) ~reason:(-1)

(* Seed constraints (all at level 0):
   - constrained affinities can never coalesce;
   - two affinities sharing an endpoint whose outer endpoints interfere
     cannot both coalesce (the merge of all three vertices would keep
     an internal interference). *)
let seed s =
  let constrained = Problem.constrained s.p in
  for i = 0 to s.m - 1 do
    let a = s.aff.(i) in
    if
      List.exists
        (fun (c : Problem.affinity) -> c.u = a.u && c.v = a.v)
        constrained
      && s.assign.(i) < 0
    then begin
      let id = add_clause s [| neg i |] in
      enqueue s (neg i) ~reason:id
    end
  done;
  for i = 0 to s.m - 1 do
    for j = i + 1 to s.m - 1 do
      let a = s.aff.(i) and b = s.aff.(j) in
      let outer =
        if a.u = b.u then Some (a.v, b.v)
        else if a.u = b.v then Some (a.v, b.u)
        else if a.v = b.u then Some (a.u, b.v)
        else if a.v = b.v then Some (a.u, b.u)
        else None
      in
      match outer with
      | Some (x, y) when x <> y && Graph.mem_edge s.p.Problem.graph x y ->
          ignore (add_clause s [| neg i; neg j |])
      | _ -> ()
    done
  done

(* CDCL driver: returns the proved optimum, floored at the caller's
   incumbent weight. *)
let solve s =
  seed s;
  (try
     while true do
       poll s;
       match propagate s with
       | Some c -> handle_conflict s c
       | None ->
           if s.total - s.loss <= s.best then
             (* Objective bound: even coalescing every undecided and
                true variable cannot beat the incumbent. *)
             handle_conflict s (objective_clause s)
           else if s.trail_n = s.m then begin
             match evaluate s with
             | Refuted c -> handle_conflict s c
             | Model gained ->
                 (* Strict improvement is guaranteed here: with every
                    variable assigned, total - loss = gained > best. *)
                 s.best <- gained;
                 handle_conflict s (objective_clause s)
           end
           else decide s
     done
   with Exhausted -> ());
  s.best

let optimum_weight ?(stop = fun () -> false) ?(floor = -1) p =
  solve (make_solver ~floor ~stop p)

(* ------------------------------------------------------------------ *)
(* Reconstruction: the CDCL core proves W*; this dedicated first-leaf
   depth-first search then returns the branch-and-bound's exact answer
   — the first leaf of weight W* in the shared branch order.  (The
   B&B's pruning never discards a W*-leaf before its first one is
   reached, and strict improvement freezes that leaf, so "first
   feasible W*-leaf in plain DFS order" characterizes its result.)     *)
(* ------------------------------------------------------------------ *)

exception Found

let reconstruct ~stop (p : Problem.t) wstar =
  let affinities, suffix = Exact.sorted_affinities p in
  let spec = Spec.of_state (Coalescing.initial p) in
  let result = ref None in
  let ticks = ref 0 in
  let poll () =
    incr ticks;
    if !ticks land 1023 = 0 && stop () then raise Cancel.Stopped
  in
  let rec go i gained =
    poll ();
    if gained + suffix.(i) < wstar then ()
    else if i = Array.length affinities then begin
      if Greedy_k.flat_is_greedy_k_colorable (Spec.flat spec) p.k then begin
        result := Some (Spec.merge_log spec);
        raise Found
      end
    end
    else begin
      let a = affinities.(i) in
      if Spec.same_class spec a.u a.v then go (i + 1) (gained + a.weight)
      else begin
        let m = Spec.mark spec in
        if Spec.merge spec a.u a.v then begin
          go (i + 1) (gained + a.weight);
          Spec.rollback spec m
        end
        else Spec.release spec m;
        go (i + 1) gained
      end
    end
  in
  (try go 0 0 with Found -> ());
  match !result with
  | Some log ->
      Coalescing.solution_of_state p
        (Spec.replay (Coalescing.initial p) log)
  | None ->
      (* The core certified a feasible leaf of weight wstar. *)
      assert false

let conservative ?(stop = fun () -> false) ?prime (p : Problem.t) =
  if not (Problem.greedy_k_colorable p) then
    invalid_arg "Pb.conservative: input graph is not greedy-k-colorable";
  let floor =
    match prime with
    | None -> -1
    | Some incumbent -> Coalescing.coalesced_weight incumbent
  in
  let wstar = optimum_weight ~stop ~floor p in
  match prime with
  | Some incumbent when wstar <= floor ->
      (* Nothing beats the incumbent: hand it back untouched, exactly
         like the primed branch-and-bound. *)
      incumbent
  | _ -> reconstruct ~stop p wstar
