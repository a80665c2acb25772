(* exact-gadgets: the exact solvers and the analyzer's route to them.
   One op is one exact solve.  Instances are chordal gadgets built
   through the public generators: single gadgets with 12-16 affinities,
   and disjoint unions of 2-3 gadgets with 8-12 affinities each.  Every
   instance is solved four ways, in this order: branch-and-bound
   ([exact]), pseudo-boolean ([exact:pb]), the portfolio ([exact:race])
   and [exact] under the static-profile dispatcher.

   The instances are a fixed corpus, the same in every run: branch-and-
   bound's time on a gadget union is heavy-tailed, so the tail of a
   family drawn per seed moves with the few unions the seed happens to
   draw.  The seed draws the order the corpus is solved in, a new
   permutation for every pass over it. *)

open Common
module G = Rc_graph.Graph
module Problem = Rc_core.Problem

(* A random chordal graph on 3 * n_aff vertices with n_aff weighted
   affinities between non-adjacent vertices, ids shifted by [offset]. *)
let gadget rng ~n_aff ~offset =
  let g = Rc_graph.Generators.random_chordal rng ~n:(3 * n_aff) ~extra:n_aff in
  let k = max 2 (Rc_graph.Chordal.omega g) in
  let vs = Array.of_list (G.vertices g) in
  let n = Array.length vs in
  let affinities = ref [] and count = ref 0 and attempts = ref 0 in
  while !count < n_aff && !attempts < 50 * n_aff do
    incr attempts;
    let u = vs.(Random.State.int rng n) and v = vs.(Random.State.int rng n) in
    if u <> v && not (G.mem_edge g u v) then begin
      incr count;
      affinities :=
        ((u + offset, v + offset), 1 + Random.State.int rng 5) :: !affinities
    end
  done;
  (G.map_vertices (fun v -> v + offset) g, !affinities, k)

type instance = { shape : string; problem : Problem.t }

let corpus_seed = 2026
let corpus_size = 400

(* Corpus instance [i].  The shape cycles over ten slots: five single
   gadgets with 12..16 affinities, three unions of 2 and two of 3
   gadgets with 8..12 affinities each (drawn). *)
let instance i =
  let rng = Random.State.make [| 0x6ad6; corpus_seed; i |] in
  let slot = i mod 10 in
  let sizes =
    if slot < 5 then [ 12 + slot ]
    else List.init (if slot < 8 then 2 else 3) (fun _ -> 8 + Random.State.int rng 5)
  in
  let graph, affs, k, _ =
    List.fold_left
      (fun (g, affs, k, off) n_aff ->
        let gi, ai, ki = gadget rng ~n_aff ~offset:off in
        (G.union g gi, ai @ affs, max k ki, off + 1000))
      (G.empty, [], 2, 0) sizes
  in
  {
    shape = String.concat "+" (List.map string_of_int sizes);
    problem = Problem.make ~graph ~affinities:affs ~k;
  }

module Profile = Rc_analysis.Profile
module Presolve = Rc_analysis.Presolve

let direct = Strategies.default_config

(* The static route with each of its steps inside its own span, through
   the public functions [Rc_analysis.Dispatch.solve] calls, in its
   order: the analyzer's profile, its degeneracy gate and presolve; per
   part, the part's profile, the heuristic incumbent that primes the
   search and branch-and-bound's exact solve; then the certified lift.
   So the analyzer's own work and the core solves it delegates show
   apart.  [parts] counts the presolved parts. *)
let static_replay ~parts (p : Problem.t) =
  let profile = Trace.span "analysis.profile" (fun () -> Profile.analyze p) in
  if profile.Profile.degeneracy >= p.Problem.k then
    Trace.span "core.exact_direct" (fun () ->
        Strategies.run_cfg direct Strategies.Exact_conservative p)
  else begin
    let plan = Trace.span "analysis.presolve" (fun () -> Presolve.run ~level:Presolve.Full p) in
    parts := !parts + List.length plan.Presolve.parts;
    let bb = Rc_core.Solver_backend.find_exn "bb" in
    let incumbent part =
      let profile = Trace.span "analysis.part_profile" (fun () -> Profile.analyze part) in
      let sol =
        match Profile.interval_order profile with
        | Some order ->
            Trace.span "analysis.interval_walk" (fun () ->
                Rc_analysis.Interval_walk.coalesce ~order part)
        | None ->
            let s =
              if profile.Profile.chordal then Strategies.Chordal_incremental
              else Strategies.Conservative Rc_core.Conservative.Briggs_george_extended
            in
            Trace.span "core.incumbent" (fun () -> Strategies.run_cfg direct s part)
      in
      if Rc_core.Coalescing.is_conservative part sol then Some sol else None
    in
    let sols =
      List.map
        (fun part ->
          let prime = incumbent part in
          Trace.span "core.part_exact" (fun () ->
              bb.solve ~stop:(Rc_core.Cancel.probe ()) ?prime direct
                Strategies.Exact_conservative part))
        plan.Presolve.parts
    in
    Trace.span "analysis.lift" (fun () ->
        match Presolve.lift_certified ~conservative:true plan sols with
        | Ok sol -> sol
        | Error m -> failwith ("static replay: lift failed certification: " ^ m))
  end

(* The four routes, by span name.  [static] solves the fourth: the
   real dispatcher, or its replay in a traced run. *)
let routes ?(static = Strategies.run_cfg
                        { direct with Strategies.dispatch = Strategies.Static_profile }
                        Strategies.Exact_conservative) () =
  [
    ("core.exact_bb", Strategies.run_cfg direct Strategies.Exact_conservative);
    ("core.exact_pb", Strategies.run_cfg direct (Strategies.Exact_backend "pb"));
    ("core.exact_race", Strategies.run_cfg direct (Strategies.Exact_backend "race"));
    ("analysis.static_exact", static);
  ]

(* The corpus index solved at op position [k] of a run: pass
   [k / corpus_size] goes through the corpus in its own seeded order. *)
let order ~seed =
  let passes = Hashtbl.create 4 in
  fun k ->
    let pass = k / corpus_size in
    let perm =
      match Hashtbl.find_opt passes pass with
      | Some perm -> perm
      | None ->
          let rng = Random.State.make [| 0x0dde; seed; pass |] in
          let perm = Array.init corpus_size Fun.id in
          for i = corpus_size - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          Hashtbl.add passes pass perm;
          perm
    in
    perm.(k mod corpus_size)

let op_list ~seed ~instances =
  let buf = Buffer.create 1024 in
  let at = order ~seed in
  for k = 0 to instances - 1 do
    let i = at k in
    let x = instance i in
    List.iter
      (fun (route, _) ->
        Printf.bprintf buf "op %d instance %d %s %s %s\n" k i x.shape
          (Rc_challenge.Instance_io.canonical_hash x.problem)
          route)
      (routes ())
  done;
  Buffer.contents buf

(* Per-solve budget, enforced through the ambient cancel probe every
   exact backend polls: a safety net, so that a route that regresses
   into an unbounded search ends the op instead of the run.  On this
   corpus the slowest solve of any route takes about 0.1 s (branch-and-
   bound on a few 3-gadget unions, whose product space it searches
   whole), well inside it.  A solve stopped at the budget is a failed
   op. *)
let budget_s = 2.0

type solved = {
  pos : int;  (** op position in the run *)
  idx : int;  (** corpus index *)
  route : string;
  ms : float;
  weight : int option;  (** [None]: over budget *)
}

let solve_within solve p =
  let deadline = now () +. budget_s in
  match Rc_core.Cancel.with_probe (fun () -> now () > deadline) (fun () -> solve p) with
  | sol -> Some sol
  | exception Rc_core.Cancel.Stopped -> None

(* Classes of [sol] whose members are not connected by the affinities
   between them: merges no chain of affinities asks for. *)
let auxiliary_merges (p : Problem.t) (sol : Rc_core.Coalescing.solution) =
  let joined mem =
    let inside v = List.mem v mem in
    let seen = Hashtbl.create 8 in
    let rec visit v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        List.iter
          (fun (a : Problem.affinity) ->
            if a.u = v && inside a.v then visit a.v
            else if a.v = v && inside a.u then visit a.u)
          p.Problem.affinities
      end
    in
    visit (List.hd mem);
    Hashtbl.length seen = List.length mem
  in
  List.length
    (List.filter
       (fun (_, mem) -> List.length mem > 1 && not (joined mem))
       (Rc_core.Coalescing.classes sol.Rc_core.Coalescing.state))

(* Whether the routes' answers on one instance are right, given as
   (route, answer) in route order.  Every answer must certify.  The
   three exact backends solve one formulation - the optimum over
   coalescings that merge affinity endpoints only (see exact.mli) - so
   bb, pb and the race must agree on its weight.  The static route
   primes each presolved part with a heuristic incumbent, and the
   chordal and interval heuristics also merge vertices that no affinity
   joins, which greedy-k-colorability may need (Vegdahl-style merging,
   the scope caveat of exact.mli); so it may find more weight than that
   optimum, never less, and more only through such a merge.  Returns
   the problems found and whether the static route found more. *)
let judge (p : Problem.t) i answers =
  let problems = ref [] and beyond = ref false in
  let wrong fmt =
    Printf.ksprintf (fun m -> problems := Printf.sprintf "instance %d: %s" i m :: !problems) fmt
  in
  let certified =
    List.filter_map
      (fun (route, sol) ->
        let r = Certify.certify_solution ~claims:[ Certify.Conservative ] p sol in
        if Certify.ok r then Some (route, sol)
        else begin
          wrong "%s: %s" route (Format.asprintf "%a" Certify.pp_report r);
          None
        end)
      answers
  in
  let weight = Rc_core.Coalescing.coalesced_weight in
  (match List.partition (fun (route, _) -> route <> "analysis.static_exact") certified with
  | [], _ -> ()
  | ((first, sol) :: _ as exact), static ->
      let w = weight sol in
      List.iter
        (fun (route, sol) ->
          let ws = weight sol in
          if ws <> w then wrong "%s finds weight %d, %s finds %d" route ws first w)
        exact;
      List.iter
        (fun (route, sol) ->
          let ws = weight sol in
          if ws < w then wrong "%s finds weight %d, below the optimum %d" route ws w
          else if ws > w && auxiliary_merges p sol = 0 then
            wrong "%s finds weight %d above the optimum %d without an auxiliary merge" route ws w
          else if ws > w then beyond := true)
        static);
  (List.rev !problems, !beyond)

(* Solve op positions [0, count), each instance by every route, until
   [deadline] once the first pass over the corpus is done.  The answers
   are judged right after the instance, outside the solves' timing;
   [wrong] collects every problem found, [beyond] the corpus indices on
   which the static route went past the exact backends' optimum. *)
let solve_all ?(routes = routes ()) corpus ~seed ~count ~deadline ~wrong ~beyond =
  let at = order ~seed in
  let out = ref [] and k = ref 0 in
  while !k < count && (!k < corpus_size || now () < deadline) do
    let i = at !k in
    let x = corpus.(i) in
    let answers =
      List.map
        (fun (route, solve) ->
          let ms, sol =
            time (fun () -> Trace.span ~op:!k route (fun () -> solve_within solve x.problem))
          in
          (route, ms *. 1e3, sol))
        routes
    in
    let problems, past =
      judge x.problem i
        (List.filter_map (fun (route, _, sol) -> Option.map (fun s -> (route, s)) sol) answers)
    in
    wrong := List.rev_append problems !wrong;
    if past then Hashtbl.replace beyond i ();
    List.iter
      (fun (route, ms, sol) ->
        let weight = Option.map Rc_core.Coalescing.coalesced_weight sol in
        out := { pos = !k; idx = i; route; ms; weight } :: !out)
      answers;
    incr k
  done;
  (!k, List.rev !out)

let run ~seed ~seconds ~traced =
  let values = Hashtbl.create 32 in
  let set k v = Hashtbl.replace values k v in
  let setup_s, corpus =
    repeated_setup ~reps:3 ~discard:ignore (fun () ->
        Rc_analysis.Dispatch.install ();
        Array.init corpus_size instance)
  in
  let budget = if traced then seconds /. 2. else seconds in
  let races0 = Rc_check.Sanitize.races_run () in
  let wins0 = Rc_check.Sanitize.race_wins () in
  let wrong = ref [] and beyond = Hashtbl.create 8 in
  let n, ops =
    solve_all corpus ~seed ~count:max_int ~deadline:(now () +. budget) ~wrong ~beyond
  in
  let races = Rc_check.Sanitize.races_run () - races0 in
  let pb_wins =
    let get l = try List.assoc "pb" l with Not_found -> 0 in
    get (Rc_check.Sanitize.race_wins ()) - get wins0
  in
  (* Traced: the same instances again, each solve inside its span, the
     static route replayed step by step; its answers are judged too. *)
  let parts = ref 0 and traced_wrong = ref [] in
  let traced_ops =
    if not traced then []
    else begin
      Trace.enabled := true;
      let routes = routes ~static:(static_replay ~parts) () in
      let _, ops =
        solve_all ~routes corpus ~seed ~count:n ~deadline:infinity ~wrong:traced_wrong
          ~beyond:(Hashtbl.create 8)
      in
      Trace.enabled := false;
      ops
    end
  in
  (* The replay must reach the dispatcher's answers: a static solve
     whose coalesced weight differs from the untraced one is counted. *)
  let replay_mismatches =
    let static_weight = Hashtbl.create 64 in
    List.iter
      (fun o -> if o.route = "analysis.static_exact" then Hashtbl.replace static_weight o.pos o.weight)
      ops;
    List.length
      (List.filter
         (fun o ->
           o.route = "analysis.static_exact"
           && o.weight <> None
           && match Hashtbl.find_opt static_weight o.pos with
              | Some (Some w) -> o.weight <> Some w
              | _ -> false)
         traced_ops)
  in
  (* Correctness: every answer certified, the exact backends agreed on
     each instance's optimum and the static route reached it (judged in
     [solve_all]); a solve stopped at the budget is a failed op, not a
     wrong one. *)
  let timeouts = List.length (List.filter (fun o -> o.weight = None) ops) in
  let failed = timeouts + List.length !wrong in
  let weights = Hashtbl.create 64 in
  List.iter
    (fun o ->
      match o.weight with
      | Some w when not (Hashtbl.mem weights o.idx) -> Hashtbl.add weights o.idx w
      | _ -> ())
    ops;
  let attempted = List.length ops in
  let ms = List.map (fun o -> o.ms) ops in
  (* Timings come from the complete passes over the corpus (the same
     1600 solves every pass, in another order); the unfinished last pass
     only counts towards [attempted].  Throughput is the median over the
     passes of solves per second of solving: instance generation and the
     certification between solves are not the service being measured.
     Each solve's latency is its median over the passes, so that one
     solve preempted in one pass does not move the tail. *)
  let passes = n / corpus_size in
  let complete = List.filter (fun o -> o.pos < passes * corpus_size) ops in
  let pass_ms p = List.filter_map (fun o -> if o.pos / corpus_size = p then Some o.ms else None) ops in
  let solve_ms =
    let tbl = Hashtbl.create (4 * corpus_size) in
    List.iter
      (fun o ->
        let k = (o.idx, o.route) in
        Hashtbl.replace tbl k (o.ms :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
      complete;
    Hashtbl.fold (fun _ ms acc -> Stats.median ms :: acc) tbl []
  in
  set "setup_s" setup_s;
  set "ops_per_s"
    (Stats.median
       (List.init passes (fun p ->
            let ms = pass_ms p in
            float_of_int (List.length ms) /. (Stats.sum ms *. 1e-3))));
  set "latency_p50_ms" (Stats.percentile solve_ms 50.);
  set "latency_p99_ms" (Stats.percentile solve_ms 99.);
  set "coalesced_frac"
    (fraction
       (Hashtbl.fold (fun _ w acc -> acc + w) weights 0)
       (Array.fold_left (fun acc x -> acc + Problem.total_weight x.problem) 0 corpus));
  set "ok_share" (1. -. fraction failed attempted);
  set "failed_share" (fraction failed attempted);
  set "peak_rss_mb" (self_peak_rss_mb ());
  set "core.portfolio_races" (float_of_int races);
  set "core.portfolio_pb_win_share" (fraction pb_wins races);
  if traced then begin
    let spans = Trace.spans () in
    List.iter
      (fun (route, _) -> set (route ^ "_ms") (Stats.median (Trace.durations_ms spans route)))
      (routes ());
    let by_instance route =
      let tbl = Hashtbl.create 64 in
      List.iter (fun o -> if o.route = route then Hashtbl.replace tbl o.pos o.ms) traced_ops;
      tbl
    in
    let bb = by_instance "core.exact_bb"
    and pb = by_instance "core.exact_pb"
    and race = by_instance "core.exact_race" in
    set "core.portfolio_overhead_ms"
      (Stats.median
         (Hashtbl.fold
            (fun i r acc -> (r -. min (Hashtbl.find bb i) (Hashtbl.find pb i)) :: acc)
            race []));
    set "analysis.profile_ms" (Stats.median (Trace.durations_ms spans "analysis.profile"));
    set "analysis.presolve_ms" (Stats.median (Trace.durations_ms spans "analysis.presolve"));
    set "analysis.presolve_parts"
      (fraction !parts (List.length (Trace.durations_ms spans "analysis.presolve")));
    (* Per op: every solve is one call into a layer, timed from outside
       around its span, so the residual is only that timing's own cost;
       the static route's steps split its time between analysis (profile,
       presolve, lift) and core (incumbents and part solves).  The
       overhead compares with the untraced solves, the static route
       dispatched there and replayed here. *)
    let per_op = float_of_int (List.length traced_ops) in
    let layers = Trace.self_by_layer_ms spans in
    let layer l = (try Hashtbl.find layers l with Not_found -> 0.) /. per_op in
    set "core.self_ms" (layer "core");
    set "analysis.self_ms" (layer "analysis");
    let traced_wall = Stats.sum (List.map (fun o -> o.ms) traced_ops) /. per_op in
    set "trace.residual_ms" (traced_wall -. layer "core" -. layer "analysis");
    set "trace.overhead_ms" (traced_wall -. Stats.mean ms)
  end;
  {
    Metrics.correct = !wrong = [] && !traced_wrong = [];
    attempted;
    failed;
    values;
    samples =
      [ ("passes", passes); ("solves_per_pass", corpus_size * List.length (routes ())); ("instances", n) ];
    notes =
      [
        ("budget_s", Metrics.json_number budget_s);
        ("over_budget", string_of_int timeouts);
        ("static_replay_mismatches", string_of_int replay_mismatches);
        ( "static_beyond_optimum",
          Metrics.json_strings
            (List.map string_of_int
               (List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) beyond []))) );
        ("wrong_answers", Metrics.json_strings (List.rev_append !wrong (List.rev !traced_wrong)));
      ];
  }
