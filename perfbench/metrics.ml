(* The metric catalogue and the result line.

   Every run prints every end-to-end metric (untraced runs) or every
   per-layer metric (traced runs), each by name with its unit; the
   self-test checks these lists against BENCHMARK.json.  A per-layer
   metric of a layer the workload never enters reads 0: no time was
   spent there. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("coalesced_frac", "share");
    ("ok_share", "share");
    ("peak_rss_mb", "MB");
  ]

let serve_tokens =
  [
    "aggressive"; "briggs"; "george"; "briggs-george"; "briggs-george-ext";
    "brute-force"; "irc-briggs"; "irc"; "optimistic"; "chordal"; "set2";
  ]

let per_layer =
  [
    (* every workload: the layer breakdown of one op *)
    ("challenge.self_ms", "ms");
    ("analysis.self_ms", "ms");
    ("core.self_ms", "ms");
    ("check.self_ms", "ms");
    ("engine.self_ms", "ms");
    ("trace.residual_ms", "ms");
    ("trace.overhead_ms", "ms");
    ("failed_share", "share");
    (* sweep-10k *)
    ("core.conservative_s", "s");
    ("core.irc_s", "s");
    ("core.optimistic_s", "s");
    ("core.set_s", "s");
    ("core.aggressive_s", "s");
    ("engine.pool_busy_share", "share");
    ("engine.pool_straggler_s", "s");
    ("analysis.profile_ms", "ms");
    ("challenge.generate_s", "s");
    (* serve-mix *)
    ("challenge.decode_binary_us", "us");
    ("challenge.decode_text_us", "us");
    ("challenge.hash_us", "us");
    ("engine.server.cache_hit_ratio", "share");
    ("engine.server.cache_lookups", "count");
    ("engine.server.cache_evictions", "count");
    ("engine.server.hit_latency_p50_ms", "ms");
    ("engine.server.hit_latency_p99_ms", "ms");
    ("engine.server.miss_latency_p50_ms", "ms");
    ("engine.server.residual_ms", "ms");
    ("analysis.profile_us", "us");
  ]
  @ List.map (fun t -> ("core.solve_us." ^ t, "us")) serve_tokens
  @ [
      ("core.solve_ms.all", "ms");
      ("core.chordal_incremental_share", "share");
      ("check.certify_us", "us");
      (* exact-gadgets *)
      ("core.exact_bb_ms", "ms");
      ("core.exact_pb_ms", "ms");
      ("core.exact_race_ms", "ms");
      ("analysis.static_exact_ms", "ms");
      ("core.portfolio_overhead_ms", "ms");
      ("core.portfolio_pb_win_share", "share");
      ("core.portfolio_races", "count");
      ("analysis.presolve_ms", "ms");
      ("analysis.presolve_parts", "count");
    ]

let workloads = [ "sweep-10k"; "serve-mix"; "exact-gadgets" ]

(* What one run hands back to the printer. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string, float) Hashtbl.t;
  samples : (string * int) list;  (** sample count behind each percentile *)
  notes : (string * string) list;  (** extra metadata, already JSON values *)
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_string s = Printf.sprintf "%S" s

let json_strings l = "[" ^ String.concat ", " (List.map json_string l) ^ "]"

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields)
  ^ "}"

let result_line ~traced r =
  let catalogue = if traced then per_layer else end_to_end in
  let metric (name, unit) =
    let v =
      match Hashtbl.find_opt r.values name with
      | Some v -> v
      | None when traced -> 0.
      | None -> failwith ("end-to-end metric not measured: " ^ name)
    in
    ( name,
      json_object [ ("value", json_number v); ("unit", json_string unit) ] )
  in
  json_object
    [
      ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", json_object (List.map metric catalogue));
    ]
