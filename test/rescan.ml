(* The rescan specification of Section 4's conservative fixpoint — the
   test suite's oracle for the production searches.

   Conservative coalescing as the paper states it: try every open
   affinity by decreasing weight, merge when the rule accepts, and
   repeat whole passes until one coalesces nothing.  The library
   computes the same fixpoint on Conservative.Engine (dirty sets,
   verdict stamps, residue witnesses) and claims the identical merge
   sequence, pass for pass; the set search and optimistic phase 3 sit
   on top of that engine.  This module restates the literal loops on
   public API only — the speculation context, the flat rule tests and
   the flat greedy-k check — with its own rule dispatch and set probe,
   so an oracle bug cannot hide behind a shared helper in the engine it
   checks. *)

module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Conservative = Rc_core.Conservative
module Rules = Rc_core.Rules
module Spec = Coalescing.Speculation

(* Keep the merges of the probe opened at [m] when the merged graph is
   still greedy-k-colorable, undo them otherwise. *)
let settle ~k spec m =
  if Greedy_k.flat_is_greedy_k_colorable (Spec.flat spec) k then begin
    Spec.release spec m;
    true
  end
  else begin
    Spec.rollback spec m;
    false
  end

(* Does merging the class roots [iu], [iv] keep the graph
   greedy-k-colorable according to the rule?  On acceptance the merge
   stays applied to the speculation context. *)
let test_and_merge rule ~k spec iu iv =
  let f = Spec.flat spec in
  let local accept =
    if accept then Spec.merge_roots spec iu iv;
    accept
  in
  match (rule : Conservative.rule) with
  | Briggs -> local (Rules.briggs_flat f ~k iu iv)
  | George ->
      local (Rules.george_flat f ~k iu iv || Rules.george_flat f ~k iv iu)
  | Briggs_george -> local (Rules.briggs_or_george_flat f ~k iu iv)
  | Briggs_george_extended ->
      local
        (Rules.briggs_or_george_flat f ~k iu iv
        || Rules.george_extended_flat f ~k iu iv
        || Rules.george_extended_flat f ~k iv iu)
  | Brute_force ->
      let m = Spec.mark spec in
      Spec.merge_roots spec iu iv;
      settle ~k spec m

(* The fixpoint on an existing speculation context, mutating it in
   place: each pass tries every still-open affinity by decreasing
   weight; stop when a pass coalesces nothing. *)
let coalesce_spec rule ~k spec affinities =
  let f = Spec.flat spec in
  let by_weight =
    List.sort
      (fun (a : Problem.affinity) b ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      affinities
  in
  let rec pass pending =
    let kept, progress =
      List.fold_left
        (fun (kept, progress) (a : Problem.affinity) ->
          let iu = Spec.repr spec a.u and iv = Spec.repr spec a.v in
          if iu = iv then (kept, progress)
          else if Flat.mem_edge f iu iv then (a :: kept, progress)
          else if test_and_merge rule ~k spec iu iv then (kept, true)
          else (a :: kept, progress))
        ([], false) pending
    in
    if progress then pass (List.rev kept)
  in
  pass by_weight

(* [Conservative.coalesce_state], by rescan. *)
let coalesce_state ?rows rule ~k st affinities =
  let spec = Spec.of_state ?rows st in
  coalesce_spec rule ~k spec affinities;
  Spec.commit spec

(* [Conservative.coalesce], by rescan. *)
let conservative ?rows rule (p : Problem.t) =
  Coalescing.solution_of_state p
    (coalesce_state ?rows rule ~k:p.k (Coalescing.initial p)
       p.affinities)

(* Merge every affinity of [set] on top of the current context; keep
   the merges only if all are possible and the merged graph stays
   greedy-k-colorable. *)
let try_set ~k spec set =
  let m = Spec.mark spec in
  let merged =
    List.for_all
      (fun (a : Problem.affinity) ->
        Spec.same_class spec a.u a.v || Spec.merge spec a.u a.v)
      set
  in
  if merged then settle ~k spec m
  else begin
    Spec.rollback spec m;
    false
  end

(* [Set_coalescing.coalesce], by rescan: brute-force singleton
   fixpoint, then every candidate set of size 2 .. [max_set] by
   decreasing combined weight, restarting from the singletons (and from
   size 2) after each set that merges. *)
let set_coalesce ?rows ~max_set (p : Problem.t) =
  let spec = Spec.of_state ?rows (Coalescing.initial p) in
  let open_affinities () =
    List.filter
      (fun (a : Problem.affinity) -> not (Spec.same_class spec a.u a.v))
      p.affinities
  in
  let singles () =
    coalesce_spec Conservative.Brute_force ~k:p.k spec (open_affinities ())
  in
  let rec grow size =
    if size <= max_set then
      let candidates =
        Rc_core.Set_coalescing.subsets_by_weight size (open_affinities ())
      in
      let rec try_all = function
        | [] -> grow (size + 1)
        | set :: rest ->
            if try_set ~k:p.k spec set then begin
              singles ();
              grow 2
            end
            else try_all rest
      in
      try_all candidates
  in
  singles ();
  grow 2;
  Coalescing.solution_of_state p (Spec.commit spec)

(* [Optimistic.coalesce] with its phase-3 re-coalescing by rescan:
   aggressive, de-coalesce to greedy-k-colorability, then the
   brute-force fixpoint over the affinities given up. *)
let optimistic ?rows ?scoring (p : Problem.t) =
  let st =
    Rc_core.Aggressive.coalesce_state (Coalescing.initial p) p.affinities
  in
  let st = Rc_core.Optimistic.decoalesce_greedy ?rows ?scoring p st in
  let open_affinities =
    List.filter
      (fun (a : Problem.affinity) -> not (Coalescing.same_class st a.u a.v))
      p.affinities
  in
  Coalescing.solution_of_state p
    (coalesce_state ?rows Conservative.Brute_force ~k:p.k st open_affinities)
