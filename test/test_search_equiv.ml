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
      Aggressive.coalesce_state (Coalescing.initial p) p.affinities
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
    let st = ref (Some (Coalescing.initial p)) in
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
(* A problem over a bare graph, for the merge-state tests: merge
   states start from a problem. *)
let bare g = Problem.make ~graph:g ~affinities:[] ~k:1

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
      | 0 -> (Coalescing.initial (bare g), Merge_reference.initial g)
      | 1 ->
          let _, rs0 =
            merge_lockstep what rng g vs n (Coalescing.initial (bare g))
              (Merge_reference.initial g)
          in
          let cls =
            List.filter
              (fun (_, members) -> List.length members > 1 || seed mod 2 = 0)
              (Merge_reference.classes rs0)
          in
          (Coalescing.of_classes (bare g) cls, Merge_reference.of_classes g cls)
      | _ ->
          let base, rbase =
            merge_lockstep what rng g vs (n / 2) (Coalescing.initial (bare g))
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

(* ------------------------------------------------------------------ *)
(* Frozen merge states and Flat.compact                                *)
(* ------------------------------------------------------------------ *)

module Flat = Rc_graph.Flat

let row_policies seed =
  [ Flat.Auto; Flat.Sparse_rows; Flat.Bitset_rows; Flat.Matrix;
    Flat.Threshold (1 + (seed mod 6)) ]

let random_graph seed =
  let classes = Qcheck_gen.[| Chordal; Gnp; Interval; K_colorable |] in
  let rng = Random.State.make [| seed; 0xf10e |] in
  let n = 6 + Random.State.int rng 15 in
  let g =
    Qcheck_gen.graph_of_cls rng classes.(seed mod 4) ~n
      ~density:(0.1 +. Random.State.float rng 0.5)
  in
  (rng, g)

(* Field-by-field equality of two kernels: capacity, labels, and per
   index its liveness, degree, dense/sparse form and row contents in
   physical order, plus the edge count and (for [Matrix]) membership. *)
let assert_same_flat what a b =
  check_int (what ^ ": capacity") (Flat.capacity a) (Flat.capacity b);
  check_int (what ^ ": num_edges") (Flat.num_edges a) (Flat.num_edges b);
  check_int (what ^ ": num_live") (Flat.num_live a) (Flat.num_live b);
  for i = 0 to Flat.capacity a - 1 do
    let what = Printf.sprintf "%s, index %d" what i in
    check_int (what ^ ": label") (Flat.label a i) (Flat.label b i);
    check (what ^ ": live") (Flat.is_live a i) (Flat.is_live b i);
    check_int (what ^ ": degree") (Flat.degree a i) (Flat.degree b i);
    check (what ^ ": dense") (Flat.row_is_dense a i) (Flat.row_is_dense b i);
    if Flat.row_is_dense a i then
      check (what ^ ": words") true (Flat.row_words a i = Flat.row_words b i)
    else
      check (what ^ ": entries") true
        (Array.sub (Flat.row_entries a i) 0 (Flat.degree a i)
        = Array.sub (Flat.row_entries b i) 0 (Flat.degree b i));
    for j = 0 to Flat.capacity a - 1 do
      check (what ^ ": mem_edge") (Flat.mem_edge a i j) (Flat.mem_edge b i j)
    done
  done

(* A random history on a kernel: merges of live non-adjacent indices
   under nested marks that are rolled back or released, some left
   open. *)
let random_history rng f =
  let marks = ref [] in
  for _ = 1 to 3 * Flat.capacity f do
    match Random.State.int rng 6 with
    | 0 -> marks := Flat.checkpoint f :: !marks
    | 1 -> (
        match !marks with
        | c :: rest ->
            marks := rest;
            if Random.State.bool rng then Flat.rollback f c
            else Flat.release f c
        | [] -> ())
    | _ ->
        let n = Flat.capacity f in
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if u <> v && Flat.is_live f u && Flat.is_live f v
           && not (Flat.mem_edge f u v)
        then Flat.merge f u v
  done

let test_flat_compact () =
  run_seeds ~name:"flat_compact" ~count:200 (fun seed ->
    let rng, g = random_graph seed in
    let policies = row_policies seed in
    let src = List.nth policies (seed mod 5) in
    let f = Flat.of_graph ~rows:src g in
    random_history rng f;
    let epoch = Flat.epoch f in
    List.iter
      (fun rows ->
        let what =
          Printf.sprintf "seed %d, %s -> %s" seed (Flat.rows_to_string src)
            (Flat.rows_to_string rows)
        in
        let c = Flat.compact ~rows f in
        Flat.check_invariants c;
        assert_same_flat what c (Flat.of_graph ~rows (Flat.to_graph f));
        check_int (what ^ ": source epoch") epoch (Flat.epoch f))
      policies)

(* States from [commit] and [of_classes], each with its
   [Merge_reference] twin. *)
let frozen_states seed rng g vs =
  let n = Array.length vs in
  let what = Printf.sprintf "seed %d" seed in
  let _, rs0 =
    merge_lockstep what rng g vs n (Coalescing.initial (bare g))
      (Merge_reference.initial g)
  in
  let cls = Merge_reference.classes rs0 in
  let base, rbase =
    merge_lockstep what rng g vs (n / 2) (Coalescing.initial (bare g))
      (Merge_reference.initial g)
  in
  let spec =
    Coalescing.Speculation.of_state
      ~rows:(List.nth (row_policies seed) (seed mod 5))
      base
  in
  let burst () =
    for _ = 1 to n do
      let u, v = random_pair rng vs in
      ignore (Coalescing.Speculation.merge spec u v)
    done
  in
  burst ();
  let log = Coalescing.Speculation.merge_log spec in
  let committed = Coalescing.Speculation.commit spec in
  (* Keep driving the spec after the commit: merges, then a rollback
     to a mark taken after them and one to a mark taken before.  None
     of it may reach the committed state. *)
  let m = Coalescing.Speculation.mark spec in
  burst ();
  let m' = Coalescing.Speculation.mark spec in
  burst ();
  Coalescing.Speculation.rollback spec m';
  burst ();
  Coalescing.Speculation.rollback spec m;
  burst ();
  [
    ( "of_classes",
      Coalescing.of_classes (bare g) cls,
      Merge_reference.of_classes g cls );
    ("commit", committed, Merge_reference.replay rbase log);
  ]

let test_frozen_state () =
  run_seeds ~name:"frozen_state" ~count:200 (fun seed ->
    let rng, g = random_graph seed in
    let vs = Array.of_list (G.vertices g) in
    List.iter
      (fun (how, st, (rs : Merge_reference.state)) ->
        let what = Printf.sprintf "seed %d, %s" seed how in
        let snap =
          match Coalescing.snapshot st with
          | Some f -> f
          | None -> Alcotest.failf "%s: state is not frozen" what
        in
        let epoch = Flat.epoch snap and before = Flat.to_graph snap in
        let unchanged step =
          check_int (what ^ ": epoch after " ^ step) epoch (Flat.epoch snap);
          check (what ^ ": snapshot after " ^ step) true
            (G.equal before (Flat.to_graph snap))
        in
        check (what ^ ": snapshot = reference") true (G.equal before rs.graph);
        (* Every k from 1 to one past the maximum degree, so both
           verdicts occur. *)
        let ks =
          List.init
            (2 + G.fold_vertices (fun v m -> max m (G.degree rs.graph v)) rs.graph 0)
            succ
        in
        let verdicts =
          List.map
            (fun k ->
              let p = Problem.make ~graph:g ~affinities:[] ~k in
              Coalescing.is_conservative p (Coalescing.solution_of_state p st))
            ks
        in
        unchanged "is_conservative";
        List.iter
          (fun rows ->
            let spec = Coalescing.Speculation.of_state ~rows st in
            for _ = 1 to Array.length vs do
              let u, v = random_pair rng vs in
              ignore (Coalescing.Speculation.merge spec u v)
            done)
          (row_policies seed);
        unchanged "of_state";
        assert_agree what g st rs;
        unchanged "graph";
        List.iter2
          (fun k verdict ->
            check
              (Printf.sprintf "%s: is_conservative k=%d" what k)
              (Greedy_k.is_greedy_k_colorable (Coalescing.graph st) k)
              verdict)
          ks verdicts)
      (frozen_states seed rng g vs))

(* ------------------------------------------------------------------ *)
(* The problem kernel                                                  *)
(* ------------------------------------------------------------------ *)

module Strategies = Rc_core.Strategies

let kernel_problem seed =
  let classes = Qcheck_gen.[| Chordal; Gnp; Interval; K_colorable |] in
  Qcheck_gen.problem_in ~cls:classes.(seed mod 4) ~n:(8 + (seed mod 13))
    ~density:0.3 ~affinity_fraction:0.6 seed

(* The flat every search starts from, the mirror of the initial state,
   is [Flat.of_graph ?rows] of the problem's graph under every row
   policy, though it is copied or compacted from the kernel. *)
let test_kernel_start () =
  run_seeds ~name:"kernel_start" ~count:100 (fun seed ->
    let p = kernel_problem seed in
    List.iter
      (fun rows ->
        let what =
          Printf.sprintf "seed %d, %s" seed
            (Option.fold ~none:"default" ~some:Flat.rows_to_string rows)
        in
        let spec =
          Coalescing.Speculation.of_state ?rows (Coalescing.initial p)
        in
        assert_same_flat what
          (Coalescing.Speculation.flat spec)
          (Flat.of_graph ?rows p.graph))
      (None :: List.map Option.some (row_policies seed)))

(* Everything that solves or reads a problem: every heuristic, the
   structural profile and the static route (structural and exact).  A
   strategy may refuse the instance; the kernel must survive that
   too. *)
let kernel_readers p =
  Rc_analysis.Dispatch.install ();
  let cfg = Strategies.default_config in
  let static = { cfg with Strategies.dispatch = Strategies.Static_profile } in
  let run cfg s () =
    try ignore (Strategies.run_cfg cfg s p) with Invalid_argument _ -> ()
  in
  List.map (fun s -> (Strategies.name s, run cfg s)) Strategies.all_heuristics
  @ [
      ("profile", fun () -> ignore (Rc_analysis.Profile.analyze p));
      ( "static briggs+george-ext",
        run static
          (Strategies.Conservative
             Rc_core.Conservative.Briggs_george_extended) );
      ("static exact", run static Strategies.Exact_conservative);
    ]

(* Unwritten: the epoch and undo log of a fresh [Flat.of_graph], clean
   invariants, and still field-by-field equal to one. *)
let assert_kernel_fresh what p =
  let k = Problem.kernel p in
  check_int (what ^ ": kernel epoch") 0 (Flat.epoch k);
  check_int (what ^ ": kernel undo log") 0 (Flat.log_length k);
  check_int (what ^ ": kernel checkpoints") 0 (Flat.checkpoint_depth k);
  Flat.check_invariants k;
  assert_same_flat (what ^ ": kernel") k (Flat.of_graph p.graph)

let test_kernel_unwritten () =
  run_seeds ~name:"kernel_unwritten" ~count:40 (fun seed ->
    let p = kernel_problem seed in
    let k = Problem.kernel p in
    List.iter
      (fun (name, read) ->
        read ();
        let what = Printf.sprintf "seed %d, after %s" seed name in
        check (what ^ ": same kernel") true (Problem.kernel p == k);
        assert_kernel_fresh what p)
      (kernel_readers p))

(* The same readers on two pool domains at once, over a problem whose
   kernel is not built yet: the domains race to build it, then share
   it. *)
let test_kernel_shared () =
  Rc_engine.Pool.with_pool ~domains:2 (fun pool ->
    run_seeds ~name:"kernel_shared" ~count:20 (fun seed ->
      let p = kernel_problem seed in
      let readers = Array.of_list (kernel_readers p) in
      let n = Array.length readers in
      ignore
        (Rc_engine.Pool.run pool ~tasks:(2 * n) (fun i ->
             snd readers.(i mod n) ()));
      assert_kernel_fresh (Printf.sprintf "seed %d, 2 domains" seed) p))

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
          Alcotest.test_case "frozen states = reference (200 seeds)" `Quick
            test_frozen_state;
        ] );
      ( "flat",
        [
          Alcotest.test_case "compact = of_graph . to_graph (200 seeds)" `Quick
            test_flat_compact;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "solvers start from of_graph (100 seeds)" `Quick
            test_kernel_start;
          Alcotest.test_case "no reader writes the kernel (40 seeds)" `Quick
            test_kernel_unwritten;
          Alcotest.test_case "two domains share one kernel (20 seeds)" `Quick
            test_kernel_shared;
        ] );
    ]
