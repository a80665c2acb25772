(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1
               [--server-exe PATH] [--out DIR]
     bench.exe --self-test
     bench.exe --catalogue

   A run prints a metadata line, then as its last line one JSON object
   with [correct], [attempted], [failed] and [metrics]: every end-to-end
   metric with tracing off, every per-layer metric with it on.  The
   metadata and, for traced runs, the recorded spans are also written
   under [--out].  [--catalogue] prints the workload and metric names
   this program reports, as JSON, for run.py's self-test to compare with
   BENCHMARK.json.  perfbench/run.py builds this program and drives it. *)

let workload_info = function
  | "sweep-10k" ->
      ( "the batch leaderboard user: every heuristic over 10^4-vertex \
         instances on the domain pool",
        [ "core"; "graph"; "engine.pool"; "engine.sweep"; "analysis.profile"; "challenge.generators" ],
        [ "challenge.codecs"; "engine.server"; "caches"; "check (outside the timed region)"; "exact solvers" ] )
  | "serve-mix" ->
      ( "compilers waiting on a running server: cache reads and fresh \
         solves over TCP, binary and text",
        [ "challenge.codecs"; "challenge.hash"; "engine.server"; "engine.pool"; "analysis.profile"; "core"; "check" ],
        [ "exact solvers"; "engine.sweep"; "analysis.presolve" ] )
  | "exact-gadgets" ->
      ( "exact answers on chordal gadgets: branch-and-bound, pseudo-boolean, \
         the portfolio and the static dispatcher",
        [ "core.exact"; "core.pb"; "core.portfolio"; "analysis.profile"; "analysis.presolve"; "analysis.dispatch"; "check" ],
        [ "engine.server"; "engine.sweep"; "heuristic worklist engine"; "challenge.codecs" ] )
  | w -> invalid_arg ("unknown workload " ^ w)

let meta ~workload ~seed ~seconds ~traced (r : Metrics.result) =
  let why, loads, bypasses = workload_info workload in
  Metrics.json_object
    ([
       ("workload", Metrics.json_string workload);
       ("seed", string_of_int seed);
       ("seconds", Metrics.json_number seconds);
       ("trace", if traced then "1" else "0");
       ("nproc", string_of_int (Domain.recommended_domain_count ()));
       ("ocaml", Metrics.json_string Sys.ocaml_version);
       ("dune_profile", Metrics.json_string Rc_check.Sanitize.profile);
       ("why", Metrics.json_string why);
       ("loads", Metrics.json_strings loads);
       ("bypasses", Metrics.json_strings bypasses);
       ( "samples",
         Metrics.json_object (List.map (fun (k, n) -> (k, string_of_int n)) r.samples) );
     ]
    @ r.notes)

(* ------------------------------------------------------------------ *)
(* Self-test of the harness                                            *)
(* ------------------------------------------------------------------ *)

let self_test () =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let close a b = Float.abs (a -. b) < 1e-9 in
  (* percentiles, hand-computed *)
  check "p50 of 1..4 is 2.5" (close (Stats.percentile [ 4.; 1.; 3.; 2. ] 50.) 2.5);
  check "p99 of 1..100 is 99.01"
    (close (Stats.percentile (List.init 100 (fun i -> float_of_int (i + 1))) 99.) 99.01);
  check "p0 and p100 are min and max"
    (close (Stats.percentile [ 3.; 9.; 5. ] 0.) 3. && close (Stats.percentile [ 3.; 9.; 5. ] 100.) 9.);
  check "median of one value" (close (Stats.median [ 7. ]) 7.);
  (* self time *)
  Trace.reset ();
  Trace.enabled := true;
  Trace.span ~op:3 "bench.op" (fun () ->
      Trace.span "core.a" (fun () -> Unix.sleepf 0.002);
      Trace.span "check.b" (fun () -> ()));
  Trace.enabled := false;
  let spans = Trace.spans () in
  let self = Trace.self_ns spans in
  check "three spans, children inherit the op id"
    (Array.length spans = 3 && Array.for_all (fun (s : Trace.span) -> s.op = 3) spans);
  check "self time of the root excludes its children"
    (let root, rself = self.(0) in
     rself = Trace.duration_ns root - Trace.duration_ns spans.(1) - Trace.duration_ns spans.(2));
  Trace.reset ();
  (* op lists: same seed byte-identical, other seed different *)
  let lists =
    [
      ("sweep-10k", fun seed -> W_sweep.op_list ~seed);
      ("serve-mix", fun seed -> W_serve.op_list ~seed ~ops:500);
      ("exact-gadgets", fun seed -> W_exact.op_list ~seed ~instances:20);
    ]
  in
  List.iter
    (fun (w, f) ->
      let a = f 1 and b = f 1 and c = f 2 in
      check (w ^ ": same seed gives a byte-identical op list") (String.equal a b);
      check (w ^ ": another seed gives another op list") (not (String.equal a c)))
    lists;
  if !failures > 0 then begin
    Printf.printf "%d self-test check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "self-test passed"

let catalogue_json () =
  let metrics l =
    Metrics.json_object (List.map (fun (name, unit) -> (name, Metrics.json_string unit)) l)
  in
  Metrics.json_object
    [
      ("workloads", Metrics.json_strings Metrics.workloads);
      ("end_to_end", metrics Metrics.end_to_end);
      ("per_layer", metrics Metrics.per_layer);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let server_exe = ref "" and out = ref "" and run_self_test = ref false and catalogue = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server-exe", Arg.Set_string server_exe, "PATH the coalesce CLI (serve-mix)");
      ("--out", Arg.Set_string out, "DIR where metadata and spans are written");
      ("--self-test", Arg.Set run_self_test, " check the harness helpers and op lists");
      ("--catalogue", Arg.Set catalogue, " print the workload and metric names as JSON");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !run_self_test then self_test ()
  else if !catalogue then print_endline (catalogue_json ())
  else begin
    if not (List.mem !workload Metrics.workloads) then begin
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "--trace takes 0 or 1";
      exit 2
    end;
    let traced = !trace = 1 and seconds = Float.max 1. !seconds and seed = !seed in
    let r =
      match !workload with
      | "sweep-10k" -> W_sweep.run ~seed ~seconds ~traced
      | "serve-mix" ->
          if !server_exe = "" then failwith "serve-mix needs --server-exe";
          W_serve.run ~seed ~seconds ~traced ~server_exe:!server_exe
      | _ -> W_exact.run ~seed ~seconds ~traced
    in
    let meta = meta ~workload:!workload ~seed ~seconds ~traced r in
    let line = Metrics.result_line ~traced r in
    if !out <> "" then begin
      let base = Printf.sprintf "%s/%s-seed%d-trace%d" !out !workload seed !trace in
      Out_channel.with_open_bin (base ^ ".json") (fun oc ->
          Printf.fprintf oc "{\"meta\": %s, \"result\": %s}\n" meta line);
      if traced then Trace.write (base ^ "-spans.jsonl") ~meta
    end;
    Printf.printf "{\"meta\": %s}\n%s\n%!" meta line
  end
