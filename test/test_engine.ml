(* Engine suite: pool semantics (index-ordered merge, exception
   propagation, reuse), splittable seed streams, the unified
   Strategies.run_cfg entry point vs the legacy per-module entry
   points, and the sweep determinism contract — the canonical report
   is byte-identical at 1, 2 and 4 domains. *)

module Pool = Rc_engine.Pool
module Seed = Rc_engine.Seed
module Sweep = Rc_engine.Sweep
module Strategies = Rc_core.Strategies
module Coalescing = Rc_core.Coalescing

(* ------------------------------------------------------------------ *)
(* Seed streams                                                        *)
(* ------------------------------------------------------------------ *)

(* Deterministic, and collision-free over the index ranges a sweep
   actually uses — checked per root seed under the audited budget. *)
let test_seed_streams () =
  Qcheck_gen.run_seeds ~name:"engine.seed-streams" ~count:50 (fun seed ->
      let root = Seed.of_int seed in
      Alcotest.(check bool)
        "of_int deterministic" true
        (Seed.of_int seed = root);
      let children = List.init 64 (Seed.split root) in
      List.iteri
        (fun i c ->
          Alcotest.(check bool)
            "split deterministic" true
            (Seed.split root i = c))
        children;
      let distinct = List.sort_uniq compare children in
      Alcotest.(check int)
        "split collision-free" (List.length children)
        (List.length distinct));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Seed.split: negative child index") (fun () ->
      ignore (Seed.split (Seed.of_int 1) (-1)))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          Alcotest.(check int) "domain count" (max 1 domains)
            (Pool.domains pool);
          List.iter
            (fun chunk ->
              let r = Pool.run ~chunk pool ~tasks:97 (fun i -> (7 * i) + 1) in
              Alcotest.(check int) "length" 97 (Array.length r);
              Array.iteri
                (fun i v -> Alcotest.(check int) "slot" ((7 * i) + 1) v)
                r)
            [ 1; 4; 100 ];
          Alcotest.(check int) "empty run" 0
            (Array.length (Pool.run pool ~tasks:0 (fun i -> i)))))
    [ 1; 2; 4 ]

let test_pool_exception () =
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.check_raises "task exception propagates" (Failure "task 5")
        (fun () ->
          ignore
            (Pool.run pool ~tasks:20 (fun i ->
                 if i = 5 then failwith "task 5" else i)));
      (* The pool survives a failed run. *)
      let r = Pool.run pool ~tasks:10 (fun i -> i) in
      Alcotest.(check int) "pool reusable after failure" 45
        (Array.fold_left ( + ) 0 r))

let test_pool_lowest_failure () =
  (* With several failing tasks, the reported one is the lowest-indexed
     failure that ran — deterministic even though scheduling is not. *)
  Pool.with_pool ~domains:4 (fun pool ->
      for _ = 1 to 5 do
        match
          Pool.run pool ~tasks:50 (fun i ->
              if i mod 7 = 3 then failwith (Printf.sprintf "task %d" i) else i)
        with
        | _ -> Alcotest.fail "expected a failure"
        | exception Failure m -> Alcotest.(check string) "lowest" "task 3" m
      done)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  ignore (Pool.run pool ~tasks:3 (fun i -> i));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool ~tasks:3 (fun i -> i)))

(* Counts past the runtime's domain limit are refused up front, before
   any worker is spawned: the refusal leaves nothing half-built, so a
   sane pool can be made right after. *)
let test_pool_domain_limit () =
  let limit = Printf.sprintf "between 1 and %d" Pool.max_domains in
  let names_limit m =
    let n = String.length limit in
    let rec go i =
      i + n <= String.length m && (String.sub m i n = limit || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun domains ->
      match Pool.create ~domains with
      | _ -> Alcotest.failf "Pool.create ~domains:%d accepted" domains
      | exception Invalid_argument m ->
          Alcotest.(check bool)
            (Printf.sprintf "message names the limit (%d)" domains)
            true (names_limit m))
    [ 200; Pool.max_domains + 1; 0; -3 ];
  Pool.with_pool ~domains:2 (fun pool ->
      Alcotest.(check (array int)) "pool after refusal" [| 0; 2; 4 |]
        (Pool.run pool ~tasks:3 (fun i -> 2 * i)))

(* The sanitizer's audit counters are domain-local on the hot path and
   flushed into process-wide totals at pool join: after a parallel
   run, the audits that happened on worker domains must be visible
   from the caller.  Without the flush, only the caller's own share
   would show — an undercount proportional to the domain count. *)
let test_pool_sanitizer_aggregation () =
  Unix.putenv "RC_CHECKED" "1";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "RC_CHECKED" "0";
      Rc_check.Sanitize.uninstall ())
    (fun () ->
      let before = Rc_check.Sanitize.events_seen () in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.run pool ~tasks:12 (fun i ->
                 let p =
                   Qcheck_gen.problem ~n:30 ~n_affinities:20 (1000 + i)
                 in
                 ignore
                   (Rc_core.Conservative.coalesce
                      Rc_core.Conservative.Brute_force p);
                 i)));
      Alcotest.(check bool)
        "worker-domain audits visible after join" true
        (Rc_check.Sanitize.events_seen () > before))

(* ------------------------------------------------------------------ *)
(* run_cfg vs the legacy entry points                                  *)
(* ------------------------------------------------------------------ *)

(* The unified entry point is a re-routing, not a re-implementation:
   on identical inputs it must return the very solutions the scattered
   per-module entry points return. *)
let test_run_cfg_equiv () =
  Qcheck_gen.run_seeds ~name:"engine.run-cfg-equiv" ~count:12 (fun seed ->
      let p = Qcheck_gen.problem ~n:30 ~n_affinities:8 seed in
      let same what (a : Coalescing.solution) (b : Coalescing.solution) =
        Alcotest.(check bool)
          (what ^ " identical")
          true
          (List.sort compare a.coalesced = List.sort compare b.coalesced)
      in
      let cfg = Strategies.default_config in
      List.iter
        (fun rule ->
          same
            (Rc_core.Conservative.rule_name rule)
            (Strategies.run_cfg cfg (Strategies.Conservative rule) p)
            (Rc_core.Conservative.coalesce rule p))
        [
          Rc_core.Conservative.Briggs;
          Rc_core.Conservative.George;
          Rc_core.Conservative.Briggs_george;
          Rc_core.Conservative.Briggs_george_extended;
          Rc_core.Conservative.Brute_force;
        ];
      same "optimistic"
        (Strategies.run_cfg cfg Strategies.Optimistic p)
        (Rc_core.Optimistic.coalesce p);
      same "set-2"
        (Strategies.run_cfg cfg (Strategies.Set_conservative 2) p)
        (Rc_core.Set_coalescing.coalesce ~max_set:2 p);
      (* max_set <= 0 defers to the config's default. *)
      same "set-cfg-default"
        (Strategies.run_cfg { cfg with max_set = 3 }
           (Strategies.Set_conservative 0) p)
        (Rc_core.Set_coalescing.coalesce ~max_set:3 p))

let test_of_string () =
  List.iter
    (fun s ->
      match Strategies.of_string (Strategies.name s) with
      | Ok s' ->
          Alcotest.(check string) "name round-trip" (Strategies.name s)
            (Strategies.name s')
      | Error m -> Alcotest.fail m)
    (Strategies.all_heuristics @ [ Strategies.Exact_conservative ]);
  List.iter
    (fun (token, expect) ->
      match Strategies.of_string token with
      | Ok s ->
          Alcotest.(check string) token expect (Strategies.name s)
      | Error m -> Alcotest.fail m)
    [
      ("briggs", "conservative/briggs");
      ("irc", "irc/briggs+george");
      ("set2", "set-conservative/2");
      ("set5", "set-conservative/5");
      ("chordal", "chordal-incremental");
      ("exact", "exact");
    ];
  match Strategies.of_string "no-such-strategy" with
  | Ok _ -> Alcotest.fail "bogus name accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Sweep determinism across domain counts                              *)
(* ------------------------------------------------------------------ *)

let unit_preset =
  let source =
    Sweep.Synthetic { n = 250; maxlive = 6; affinity_fraction = 0.3 }
  in
  { Sweep.sname = "unit"; sources = [ source; source ] }

let test_sweep_domain_determinism () =
  let reference = Sweep.canonical (Sweep.run ~domains:1 ~seed:42 unit_preset) in
  Alcotest.(check bool) "reference is non-trivial" true
    (String.length reference > 100);
  List.iter
    (fun domains ->
      let c = Sweep.canonical (Sweep.run ~domains ~seed:42 unit_preset) in
      Alcotest.(check string)
        (Printf.sprintf "canonical report at %d domains" domains)
        reference c)
    [ 2; 4 ];
  (* A different root seed must give a different report — the seed is
     actually threaded, not ignored. *)
  let other = Sweep.canonical (Sweep.run ~domains:2 ~seed:43 unit_preset) in
  Alcotest.(check bool) "seed changes the report" true (reference <> other)

let test_sweep_pool_reuse () =
  (* One pool serving several sweeps gives the same reports as
     per-sweep pools. *)
  let a, b =
    Pool.with_pool ~domains:3 (fun pool ->
        ( Sweep.canonical (Sweep.run ~pool ~seed:42 unit_preset),
          Sweep.canonical (Sweep.run ~pool ~seed:43 unit_preset) ))
  in
  Alcotest.(check string) "seed 42 via shared pool"
    (Sweep.canonical (Sweep.run ~domains:1 ~seed:42 unit_preset))
    a;
  Alcotest.(check string) "seed 43 via shared pool"
    (Sweep.canonical (Sweep.run ~domains:1 ~seed:43 unit_preset))
    b

let test_sweep_capping () =
  (* The scale ceiling turns over-scale cells into Capped, and the
     leaderboard accounts for them. *)
  let t =
    Sweep.run ~domains:2 ~seed:7
      ~strategies:[ Strategies.Chordal_incremental ]
      {
        Sweep.sname = "over";
        sources =
          [ Sweep.Synthetic { n = 2_000; maxlive = 6; affinity_fraction = 0.2 } ];
      }
  in
  Array.iter
    (fun (c : Sweep.cell) ->
      match c.outcome with
      | Sweep.Capped { ceiling } ->
          Alcotest.(check int) "ceiling recorded"
            (Sweep.scale_ceiling Strategies.Chordal_incremental)
            ceiling
      | _ -> Alcotest.fail "expected a capped cell")
    t.Sweep.cells;
  match t.Sweep.leaderboard with
  | [ row ] ->
      Alcotest.(check int) "capped counted" 1 row.Sweep.capped;
      Alcotest.(check int) "nothing evaluated" 0 row.Sweep.evaluated
  | _ -> Alcotest.fail "expected one leaderboard row"

let () =
  Alcotest.run "engine"
    [
      ( "seed",
        [
          Alcotest.test_case "splittable streams" `Quick test_seed_streams;
        ] );
      ( "pool",
        [
          Alcotest.test_case "index-ordered map" `Quick test_pool_map;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "lowest-indexed failure" `Quick
            test_pool_lowest_failure;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "domain limit" `Quick test_pool_domain_limit;
          Alcotest.test_case "sanitizer counters aggregate at join" `Quick
            test_pool_sanitizer_aggregation;
        ] );
      ( "config",
        [
          Alcotest.test_case "run_cfg = legacy entry points" `Quick
            test_run_cfg_equiv;
          Alcotest.test_case "of_string" `Quick test_of_string;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "canonical report at 1/2/4 domains" `Quick
            test_sweep_domain_determinism;
          Alcotest.test_case "shared pool" `Quick test_sweep_pool_reuse;
          Alcotest.test_case "scale ceiling" `Quick test_sweep_capping;
        ] );
    ]
