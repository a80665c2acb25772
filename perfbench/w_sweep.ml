(* sweep-10k: the batch leaderboard user.  One op is one evaluated
   sweep cell (strategy x instance) of [Sweep.run] at two domains over
   every heuristic.  The preset mirrors the engine's [10k] preset: two
   10^4-vertex interval instances (maxlive 12) and one clustered 500 x 20
   instance, made from the run seed.  A run sweeps that leaderboard
   again and again for its time budget. *)

open Common
module Sweep = Rc_engine.Sweep
module Pool = Rc_engine.Pool

let domains = 2

let preset =
  let synthetic =
    Sweep.Synthetic { n = 10_000; maxlive = 12; affinity_fraction = 0.3 }
  in
  {
    Sweep.sname = "sweep-10k";
    sources =
      [
        synthetic;
        synthetic;
        Sweep.Clustered
          { gadgets = 500; size = 20; maxlive = 4; affinity_fraction = 0.3 };
      ];
  }

(* The op list: every cell's strategy and its instance's canonical hash. *)
let op_list ~seed =
  let problems = Sweep.instance_problems ~seed preset in
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Array.iteri
        (fun i p ->
          Printf.bprintf buf "instance %d %s %s\n" i
            (Rc_challenge.Instance_io.canonical_hash p)
            (Strategies.name s))
        problems)
    Strategies.all_heuristics;
  Buffer.contents buf

let evaluated (r : Sweep.t) =
  Array.to_list r.cells
  |> List.filter_map (fun (c : Sweep.cell) ->
         match c.outcome with
         | Sweep.Report rep -> Some (c, rep)
         | Sweep.Capped _ | Sweep.Failed _ -> None)

let attempted (r : Sweep.t) =
  Array.to_list r.cells
  |> List.filter (fun (c : Sweep.cell) ->
         match c.outcome with Sweep.Capped _ -> false | _ -> true)
  |> List.length

let same_answer (a : Strategies.report) (b : Strategies.report) =
  a.coalesced_weight = b.coalesced_weight
  && a.total_weight = b.total_weight
  && a.coalesced_count = b.coalesced_count
  && a.conservative = b.conservative

(* Re-solve every cell of [r] outside the timed region, on the pool,
   and certify the answer; the re-solved report must also agree with
   the one the sweep printed.  One verdict per cell, [Some why] for a
   failed one. *)
let verify pool problems (r : Sweep.t) =
  let cells = r.cells in
  Pool.run pool ~tasks:(Array.length cells) (fun i ->
      let c = cells.(i) in
      match c.outcome with
      | Sweep.Capped _ -> None
      | Sweep.Failed m -> Some (c.strategy ^ " failed: " ^ m)
      | Sweep.Report rep -> (
          let s = strategy_of_token c.strategy in
          let p = problems.(c.instance) in
          match solve_certified s p with
          | Error m -> Some m
          | Ok sol ->
              if same_answer (Strategies.report_of_solution s p sol) rep then None
              else Some (c.strategy ^ ": report differs from re-solve")))

let family name =
  let prefixes =
    [
      ("conservative/", "core.conservative_s");
      ("irc/", "core.irc_s");
      ("optimistic", "core.optimistic_s");
      ("set-conservative/", "core.set_s");
      ("aggressive", "core.aggressive_s");
    ]
  in
  List.find_map
    (fun (prefix, metric) ->
      if String.starts_with ~prefix name then Some metric else None)
    prefixes

let run ~seed ~seconds ~traced =
  let values = Hashtbl.create 32 in
  let set k v = Hashtbl.replace values k v in
  (* [Sweep.run] builds its instances from the seed inside every timed
     sweep; the set-up's copy serves the verification and the traced
     replay.  So [setup_s] times the pool start and one generation, a
     stand-in for the generation each sweep repeats. *)
  let setup_s, (pool, problems) =
    repeated_setup
      ~discard:(fun (pool, _) -> Pool.shutdown pool)
      (fun () -> (Pool.create ~domains, Sweep.instance_problems ~seed preset))
  in
  let sweep () = Sweep.run ~pool ~seed preset in
  (* Untraced: as many sweeps as end within about the budget, at least
     two.  Traced: one sweep untraced, then the generation and the
     profiling inside [Sweep.run] replayed in spans, then one sweep in a
     single span. *)
  let t_start = now () in
  let sweeps = ref [ sweep () ] in
  let fits () =
    now () -. t_start +. ((List.hd !sweeps).Sweep.wall_s /. 2.) < seconds
  in
  while (not traced) && (List.length !sweeps < 2 || fits ()) do
    sweeps := sweep () :: !sweeps
  done;
  let sweeps = List.rev !sweeps in
  let traced_sweep =
    if not traced then None
    else begin
      Trace.enabled := true;
      ignore
        (Trace.span ~op:0 "challenge.generate" (fun () -> Sweep.instance_problems ~seed preset));
      Array.iter
        (fun p -> ignore (Trace.span "analysis.profile" (fun () -> Rc_analysis.Profile.analyze p)))
        problems;
      let r = Trace.span ~op:0 "engine.sweep" sweep in
      Trace.enabled := false;
      Some r
    end
  in
  (* Correctness, outside the timed region: the first sweep's cells are
     re-solved and certified; every later sweep must report the same
     answers cell by cell. *)
  let first = List.hd sweeps in
  let verdicts = verify pool problems first in
  Pool.shutdown pool;
  let failures =
    Array.to_list verdicts
    @ List.concat_map
        (fun (r : Sweep.t) ->
          Array.to_list
            (Array.mapi
               (fun i (c : Sweep.cell) ->
                 match (c.outcome, first.cells.(i).outcome) with
                 | Sweep.Report a, Sweep.Report b when same_answer a b -> None
                 | Sweep.Capped _, Sweep.Capped _ -> None
                 | _ -> Some (c.strategy ^ ": answer changed between sweeps"))
               r.cells))
        (List.tl sweeps @ Option.to_list traced_sweep)
    |> List.filter_map Fun.id
  in
  let failed = List.length failures in
  let attempted =
    List.fold_left (fun n r -> n + attempted r) 0 (sweeps @ Option.to_list traced_sweep)
  in
  (* Every sweep runs the same cells, so each cell's time is its median
     over the sweeps, and throughput the median of the sweeps'.  A sweep
     has about 30 cells: its p99 is the straggler cell. *)
  let cell_ms =
    List.concat
      (List.init (Array.length first.cells) (fun i ->
           let times =
             List.filter_map
               (fun (r : Sweep.t) ->
                 match r.cells.(i).outcome with
                 | Sweep.Report rep -> Some (rep.time_s *. 1e3)
                 | Sweep.Capped _ | Sweep.Failed _ -> None)
               sweeps
           in
           if times = [] then [] else [ Stats.median times ]))
  in
  set "setup_s" setup_s;
  set "ops_per_s"
    (Stats.median
       (List.map
          (fun (r : Sweep.t) -> float_of_int (List.length (evaluated r)) /. r.wall_s)
          sweeps));
  set "latency_p50_ms" (Stats.percentile cell_ms 50.);
  set "latency_p99_ms" (Stats.percentile cell_ms 99.);
  (let cw, tw =
     List.fold_left
       (fun (cw, tw) (_, (rep : Strategies.report)) ->
         (cw + rep.coalesced_weight, tw + rep.total_weight))
       (0, 0) (evaluated first)
   in
   set "coalesced_frac" (fraction cw tw));
  set "ok_share" (1. -. fraction failed attempted);
  set "failed_share" (fraction failed attempted);
  set "peak_rss_mb" (self_peak_rss_mb ());
  (match traced_sweep with
  | None -> ()
  | Some r ->
      let spans = Trace.spans () in
      let cells = evaluated r in
      let n = float_of_int (List.length cells) in
      let times = List.map (fun (_, (rep : Strategies.report)) -> rep.time_s) cells in
      List.iter
        (fun ((c : Sweep.cell), (rep : Strategies.report)) ->
          Option.iter
            (fun m -> set m ((try Hashtbl.find values m with Not_found -> 0.) +. rep.time_s))
            (family c.strategy))
        cells;
      let busy = Stats.sum times in
      set "engine.pool_busy_share" (busy /. (r.wall_s *. float_of_int domains));
      set "engine.pool_straggler_s" (List.fold_left max 0. times);
      let profile = Trace.durations_ms spans "analysis.profile" in
      let generate = Trace.durations_ms spans "challenge.generate" in
      set "analysis.profile_ms" (Stats.mean profile);
      set "challenge.generate_s" (Stats.sum generate *. 1e-3);
      (* Per op, in wall ms: the cells run in parallel on the pool; the
         generation and the profiling inside [Sweep.run] run serially
         before them.  What the layers leave unexplained is the pool's
         idle domain time and the leaderboard. *)
      let wall_ms = r.wall_s *. 1e3 /. n in
      let core = busy *. 1e3 /. float_of_int domains /. n
      and analysis = Stats.sum profile /. n
      and challenge = Stats.sum generate /. n in
      set "core.self_ms" core;
      set "analysis.self_ms" analysis;
      set "challenge.self_ms" challenge;
      set "trace.residual_ms" (wall_ms -. core -. analysis -. challenge);
      (* The traced sweep is one span around [Sweep.run]: tracing adds
         nothing inside it, and the wall difference between two single
         sweeps would be run-to-run noise, not tracing cost. *)
      set "trace.overhead_ms" 0.);
  {
    Metrics.correct = failed = 0;
    attempted;
    failed;
    values;
    samples =
      [ ("sweeps", List.length sweeps); ("cells_per_sweep", List.length (evaluated first)) ];
    notes =
      (match failures with
      | [] -> []
      | m :: _ -> [ ("first_failure", Metrics.json_string m) ]);
  }
