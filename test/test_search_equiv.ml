(* Differential lockdown of the flat-kernel search drivers.

   PR 2 moved the merge-heavy searches (Optimistic de-coalescing, Exact
   branch-and-bound, Set_coalescing) onto the Flat checkpoint/rollback
   speculation context.  Each driver kept its persistent-graph
   implementation as a [Reference] submodule; this suite replays >= 200
   seeded random instances per algorithm through both paths and demands
   they agree on the removed-affinity weight, plus an independent
   brute-force oracle for the exact search so the suffix-weight pruning
   bound can never silently over-prune.  The persistent merge state
   itself is locked the same way: [Coalescing.merge] against the
   full-rewrite representative map it replaced ([Merge_reference]). *)

module G = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k
module Generators = Rc_graph.Generators
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Aggressive = Rc_core.Aggressive
module Optimistic = Rc_core.Optimistic
module Exact = Rc_core.Exact
module Set_coalescing = Rc_core.Set_coalescing

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Under --profile dev-checked (or RC_CHECKED=1) the whole differential
   suite runs with the kernel sanitizer auditing every speculation
   event; any invariant violation fails the run with [Failure]. *)
let () =
  if Rc_check.Sanitize.install_if_enabled () then
    print_endline "test_search_equiv: kernel sanitizer enabled"

(* Seeded random problems over a greedy-k-colorable base, from the
   shared generator layer (test/qcheck_gen.ml): chordal and gnp bases
   alternate so both dense-clique and sparse-random shapes are
   exercised; [k] is the base graph's coloring number, the tightest
   value for which every driver's precondition holds.  Each property
   wraps its loop in [Qcheck_gen.run_seeds], which emits the
   "[seeds] <name> <ran> <declared>" audit line CI verifies. *)
let random_problem = Qcheck_gen.problem
let run_seeds = Qcheck_gen.run_seeds

let weight = Coalescing.coalesced_weight

(* Common postcondition of the flat path: sound classification, a
   greedy-k merged graph, and a full independent certification of the
   answer (PR 3's Rc_check.Certify re-derives the quotient, the
   affinity split and the conservative claim from scratch). *)
let assert_valid name p sol =
  check (name ^ ": flat solution sound") true (Coalescing.check p sol = Ok ());
  check
    (name ^ ": flat merged graph greedy-k")
    true
    (Coalescing.is_conservative p sol);
  let report =
    Rc_check.Certify.certify_solution
      ~claims:[ Rc_check.Certify.Conservative ]
      p sol
  in
  if not (Rc_check.Certify.ok report) then
    Alcotest.failf "%s: %s" name
      (Format.asprintf "%a" Rc_check.Certify.pp_report report)

(* ------------------------------------------------------------------ *)
(* Optimistic                                                          *)
(* ------------------------------------------------------------------ *)

let scoring_of_seed seed =
  match seed mod 3 with
  | 0 -> Optimistic.Degree_per_weight
  | 1 -> Optimistic.Weight_only
  | _ -> Optimistic.Degree_only

let test_optimistic_differential () =
  run_seeds ~name:"optimistic_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let scoring = scoring_of_seed seed in
    let flat = Optimistic.coalesce ~scoring p in
    let reference = Optimistic.Reference.coalesce ~scoring p in
    check_int
      (Printf.sprintf "optimistic weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "optimistic (seed %d)" seed) p flat)

(* Phase 2 in isolation, from the fully aggressive state the Theorem 6
   experiments start at. *)
let test_decoalesce_differential () =
  run_seeds ~name:"decoalesce_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let scoring = scoring_of_seed (seed + 1) in
    let st0 =
      Aggressive.coalesce_state (Coalescing.initial p.graph) p.affinities
    in
    let flat =
      Coalescing.solution_of_state p (Optimistic.decoalesce_greedy ~scoring p st0)
    in
    let reference =
      Coalescing.solution_of_state p
        (Optimistic.Reference.decoalesce_greedy ~scoring p st0)
    in
    check_int
      (Printf.sprintf "decoalesce weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "decoalesce (seed %d)" seed) p flat)

(* ------------------------------------------------------------------ *)
(* Exact                                                               *)
(* ------------------------------------------------------------------ *)

let test_exact_differential () =
  run_seeds ~name:"exact_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:10 ~n_affinities:6 seed in
    let flat = Exact.conservative p in
    let reference = Exact.Reference.conservative p in
    check_int
      (Printf.sprintf "exact conservative weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "exact conservative (seed %d)" seed) p flat;
    check_int
      (Printf.sprintf "exact aggressive weight (seed %d)" seed)
      (weight (Exact.Reference.aggressive p))
      (weight (Exact.aggressive p)))

let test_exact_k_colorable_differential () =
  (* The doubly-exponential variant: fewer, smaller instances. *)
  run_seeds ~name:"exact_k_colorable_differential" ~count:60 (fun seed ->
    let p = random_problem ~n:8 ~n_affinities:4 seed in
    check_int
      (Printf.sprintf "exact k-colorable weight (seed %d)" seed)
      (weight (Exact.Reference.conservative_k_colorable p))
      (weight (Exact.conservative_k_colorable p)))

(* Brute-force optimality oracle: enumerate all 2^m affinity subsets,
   realize each feasible one (merging a subset is order-independent:
   it succeeds iff no class of its transitive closure contains an
   interference), and keep the best value among those whose merged
   graph stays greedy-k.  The value of a subset is the weight of every
   affinity its closure coalesces — exactly what
   [Coalescing.coalesced_weight] reports — so the exact search must
   match it. *)
let brute_force_optimum (p : Problem.t) =
  let affinities = Array.of_list p.affinities in
  let m = Array.length affinities in
  let best = ref (-1) in
  for mask = 0 to (1 lsl m) - 1 do
    let st = ref (Some (Coalescing.initial p.graph)) in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then
        match !st with
        | None -> ()
        | Some s ->
            let a = affinities.(i) in
            if Coalescing.same_class s a.u a.v then ()
            else st := Coalescing.merge s a.u a.v
    done;
    match !st with
    | Some s when Greedy_k.is_greedy_k_colorable (Coalescing.graph s) p.k ->
        let w = weight (Coalescing.solution_of_state p s) in
        if w > !best then best := w
    | Some _ | None -> ()
  done;
  !best

let test_exact_oracle () =
  run_seeds ~name:"exact_oracle" ~count:60 (fun seed ->
    let p = random_problem ~n:10 ~n_affinities:(3 + (seed mod 4)) seed in
    check_int
      (Printf.sprintf "exact = brute-force oracle (seed %d)" seed)
      (brute_force_optimum p)
      (weight (Exact.conservative p)))

(* ------------------------------------------------------------------ *)
(* Set coalescing                                                      *)
(* ------------------------------------------------------------------ *)

let test_set_differential () =
  run_seeds ~name:"set_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let max_set = 2 + (seed mod 2) in
    let flat = Set_coalescing.coalesce ~max_set p in
    let reference = Set_coalescing.Reference.coalesce ~max_set p in
    check_int
      (Printf.sprintf "set-%d weight (seed %d)" max_set seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "set-%d (seed %d)" max_set seed) p flat;
    (* Both paths must also agree on which affinities were coalesced,
       not only on their weight. *)
    let names sol =
      List.map (fun (a : Problem.affinity) -> (a.u, a.v)) sol.Coalescing.coalesced
    in
    check
      (Printf.sprintf "set-%d same coalesced set (seed %d)" max_set seed)
      true
      (names flat = names reference))

(* ------------------------------------------------------------------ *)
(* Subset enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let test_subsets_by_weight () =
  let affs =
    List.mapi
      (fun i w -> { Problem.u = 2 * i; v = (2 * i) + 1; weight = w })
      [ 5; 3; 9; 1; 7 ]
  in
  let binom n r =
    let rec f n r = if r = 0 then 1 else n * f (n - 1) (r - 1) / r in
    f n r
  in
  List.iter
    (fun size ->
      let subsets = Set_coalescing.subsets_by_weight size affs in
      check_int
        (Printf.sprintf "C(5, %d) subsets" size)
        (binom 5 size) (List.length subsets);
      (* every subset has the right size, with distinct members in
         input order *)
      List.iter
        (fun s ->
          check_int "subset size" size (List.length s);
          let positions =
            List.map
              (fun (a : Problem.affinity) ->
                let rec idx i = function
                  | [] -> Alcotest.fail "unknown member"
                  | x :: _ when x == a -> i
                  | _ :: rest -> idx (i + 1) rest
                in
                idx 0 affs)
              s
          in
          check "members in input order" true
            (List.sort compare positions = positions
            && List.length (List.sort_uniq compare positions) = size))
        subsets;
      (* combined weights are non-increasing *)
      let weights =
        List.map
          (fun s ->
            List.fold_left (fun w (a : Problem.affinity) -> w + a.weight) 0 s)
          subsets
      in
      check "weights non-increasing" true
        (List.sort (fun a b -> compare b a) weights = weights))
    [ 1; 2; 3; 4; 5 ];
  (* the degenerate sizes *)
  check_int "size 0" 1 (List.length (Set_coalescing.subsets_by_weight 0 affs));
  check_int "size > m" 0 (List.length (Set_coalescing.subsets_by_weight 6 affs))

(* ------------------------------------------------------------------ *)
(* Coalescing.merge vs the full-rewrite reference                      *)
(* ------------------------------------------------------------------ *)

(* The original persistent merge state, kept here as the oracle of
   [Coalescing]: a bare representative map that every merge rewrites in
   full, with classes regrouped from it on demand. *)
module Merge_reference = struct
  module IMap = G.IMap

  type state = { graph : G.t; repr : G.vertex IMap.t }

  let initial g =
    {
      graph = g;
      repr = List.fold_left (fun m v -> IMap.add v v m) IMap.empty (G.vertices g);
    }

  let find st v = IMap.find v st.repr

  let merge st u v =
    let ru = find st u and rv = find st v in
    if ru = rv then None
    else if G.mem_edge st.graph ru rv then None
    else
      let graph = G.merge st.graph ru rv in
      let repr = IMap.map (fun r -> if r = rv then ru else r) st.repr in
      Some { graph; repr }

  let classes st =
    IMap.fold
      (fun orig r acc ->
        let cur = match IMap.find_opt r acc with Some l -> l | None -> [] in
        IMap.add r (orig :: cur) acc)
      st.repr IMap.empty
    |> IMap.bindings
    |> List.map (fun (r, members) -> (r, List.rev members))

  let class_of st v =
    let r = find st v in
    IMap.fold (fun orig r' acc -> if r' = r then orig :: acc else acc) st.repr []
    |> List.rev

  (* A chain of persistent merges per class. *)
  let of_classes g cls =
    let st = initial g in
    let graph =
      List.fold_left
        (fun graph (rep, members) ->
          List.fold_left
            (fun graph v -> if v = rep then graph else G.merge graph rep v)
            graph members)
        st.graph cls
    in
    let repr =
      List.fold_left
        (fun m (rep, members) ->
          List.fold_left (fun m v -> IMap.add v rep m) m members)
        st.repr cls
    in
    { graph; repr }

  let replay st log =
    List.fold_left
      (fun st (u, v) -> match merge st u v with Some st -> st | None -> assert false)
      st log
end

(* Every observation [Coalescing] offers must match the reference. *)
let assert_agree what g st (rs : Merge_reference.state) =
  let vs = G.vertices g in
  check (what ^ ": graph") true (G.equal (Coalescing.graph st) rs.graph);
  List.iter
    (fun v ->
      check_int (what ^ ": find") (Merge_reference.find rs v) (Coalescing.find st v);
      check (what ^ ": class_of") true
        (Coalescing.class_of st v = Merge_reference.class_of rs v);
      List.iter
        (fun u ->
          check (what ^ ": same_class")
            (Merge_reference.find rs u = Merge_reference.find rs v)
            (Coalescing.same_class st u v))
        vs)
    vs;
  check (what ^ ": classes") true
    (Coalescing.classes st = Merge_reference.classes rs)

(* Random vertex pairs, drawn with replacement: the sequences hit equal
   classes and interfering classes as well as accepted merges. *)
let random_pair rng vs =
  let n = Array.length vs in
  (vs.(Random.State.int rng n), vs.(Random.State.int rng n))

(* Drive both states through [steps] random merges, comparing after
   each one. *)
let merge_lockstep what rng g vs steps st rs =
  let st = ref st and rs = ref rs in
  for i = 1 to steps do
    let u, v = random_pair rng vs in
    let what = Printf.sprintf "%s, merge %d (%d, %d)" what i u v in
    (match (Coalescing.merge !st u v, Merge_reference.merge !rs u v) with
    | Some st', Some rs' ->
        st := st';
        rs := rs'
    | None, None -> ()
    | Some _, None -> Alcotest.failf "%s: accepted, reference refused" what
    | None, Some _ -> Alcotest.failf "%s: refused, reference accepted" what);
    assert_agree what g !st !rs
  done;
  (!st, !rs)

(* Start states: fresh, built by [of_classes] from the classes of a
   random reference run, or committed from a speculation (with marks
   rolled back and released) over a partly merged base.  Then keep
   merging. *)
let test_merge_oracle () =
  let classes = Qcheck_gen.[| Chordal; Gnp; Interval; K_colorable |] in
  run_seeds ~name:"merge_oracle" ~count:200 (fun seed ->
    let rng = Random.State.make [| seed; 0xc0a1 |] in
    let n = 6 + Random.State.int rng 11 in
    let g =
      Qcheck_gen.graph_of_cls rng classes.(seed mod 4) ~n
        ~density:(0.1 +. Random.State.float rng 0.4)
    in
    let vs = Array.of_list (G.vertices g) in
    let what = Printf.sprintf "seed %d" seed in
    let st, rs =
      match seed mod 3 with
      | 0 -> (Coalescing.initial g, Merge_reference.initial g)
      | 1 ->
          let _, rs0 =
            merge_lockstep what rng g vs n (Coalescing.initial g)
              (Merge_reference.initial g)
          in
          let cls =
            List.filter
              (fun (_, members) -> List.length members > 1 || seed mod 2 = 0)
              (Merge_reference.classes rs0)
          in
          (Coalescing.of_classes g cls, Merge_reference.of_classes g cls)
      | _ ->
          let base, rbase =
            merge_lockstep what rng g vs (n / 2) (Coalescing.initial g)
              (Merge_reference.initial g)
          in
          let spec = Coalescing.Speculation.of_state base in
          let burst () =
            for _ = 1 to n do
              let u, v = random_pair rng vs in
              ignore (Coalescing.Speculation.merge spec u v)
            done
          in
          burst ();
          let m = Coalescing.Speculation.mark spec in
          burst ();
          if Random.State.bool rng then Coalescing.Speculation.rollback spec m
          else Coalescing.Speculation.release spec m;
          burst ();
          ( Coalescing.Speculation.commit spec,
            Merge_reference.replay rbase (Coalescing.Speculation.merge_log spec) )
    in
    assert_agree (what ^ ", start") g st rs;
    ignore (merge_lockstep what rng g vs (2 * n) st rs))

let () =
  Alcotest.run "rc_search_equiv"
    [
      ( "optimistic",
        [
          Alcotest.test_case "coalesce: flat = reference (200 seeds)" `Quick
            test_optimistic_differential;
          Alcotest.test_case "decoalesce: flat = reference (200 seeds)" `Quick
            test_decoalesce_differential;
        ] );
      ( "exact",
        [
          Alcotest.test_case "search: flat = reference (200 seeds)" `Quick
            test_exact_differential;
          Alcotest.test_case "k-colorable target: flat = reference" `Quick
            test_exact_k_colorable_differential;
          Alcotest.test_case "brute-force optimality oracle" `Quick
            test_exact_oracle;
        ] );
      ( "set_coalescing",
        [
          Alcotest.test_case "coalesce: flat = reference (200 seeds)" `Quick
            test_set_differential;
          Alcotest.test_case "subset enumeration" `Quick test_subsets_by_weight;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "merge = full-rewrite reference (200 seeds)" `Quick
            test_merge_oracle;
        ] );
    ]
