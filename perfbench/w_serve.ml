(* serve-mix: compilers asking a running server for allocations.  One
   op is one ANSWER.  A [coalesce serve] process listens on an ephemeral
   TCP port with two domains and an answer cache smaller than the run's
   distinct fresh keys.  Two connections drive it in a closed loop, each
   waiting for its replies: connection A sends one SOLVE+FLUSH at a
   time, connection B batches of 8.  Each connection draws its own fixed,
   seeded request list: half repeats from a small hot set of SSA
   instances, half never-seen instances; strategies are single-heuristic
   tokens with about 2% [all]; about a quarter text-encoded.

   The SSA programs are a fixed corpus, the same in every run, as the
   coalescing challenge is a fixed corpus: solve cost grows steeply with
   program size, so a corpus drawn per seed would make the run's total
   work, and every metric with it, depend on which large programs the
   seed happened to draw.  The seed draws the request list.  Never-seen
   instances are corpus programs with every vertex id shifted by an
   offset unique to the request: a new canonical hash (so a new cache
   key and a fresh solve) at the cost of a relabelling instead of a new
   SSA generation. *)

open Common
module Server = Rc_engine.Server
module Client = Server.Client
module Io = Rc_challenge.Instance_io
module Problem = Rc_core.Problem
module G = Rc_graph.Graph
module Seed = Rc_engine.Seed

let domains = 2
let hot_count = 16
(* Few enough base programs that every token's fresh lane goes round
   them several times in a run, [all] too: connection A's tail is
   connection B's slowest batches, and those come from the largest
   programs under the costliest tokens, which a partial pass would
   include or leave out by the luck of the seed. *)
let base_count = 16
let corpus_seed = 2026
(* The answer cache holds the hot set (16 programs x 12 tokens) and the
   never-seen instances inserted between two requests of one hot key:
   an [all] key comes round about every 1500 ops, after some 750 fresh
   inserts, and a shuffled cycle can stretch that to twice as many.  So
   hot repeats read the cache, while the run's thousands of distinct
   fresh keys overflow it and evict. *)
let cache_entries = 1536
let batch = 8

(* Ops of each connection every run serves whatever the time budget:
   the fixed op list [coalesced_frac] is taken over. *)
let min_ops = 500

type inst = Hot of int | Fresh of { id : int; base : int }
type op = { conn : int; idx : int; inst : inst; token : string; text : bool }

(* A seeded cycle through [n] items, reshuffled at every pass. *)
type cycle = { rng : Random.State.t; items : int array; mutable pos : int }

let cycle rng n = { rng; items = Array.init n Fun.id; pos = n }

let draw c =
  let n = Array.length c.items in
  if c.pos >= n then begin
    for i = n - 1 downto 1 do
      let j = Random.State.int c.rng (i + 1) in
      let t = c.items.(i) in
      c.items.(i) <- c.items.(j);
      c.items.(j) <- t
    done;
    c.pos <- 0
  end;
  c.pos <- c.pos + 1;
  c.items.(c.pos - 1)

(* Tokens come from a deck of four of each single token and one [all]
   (2.2%).  Each token then walks its own cycle through the programs, so
   every program meets every token equally often: the expensive pairs
   (large programs under [chordal] or [all]) come up at the same rate in
   every run instead of with the luck of the draw. *)
let deck_tokens =
  Array.of_list ("all" :: List.concat (List.init 4 (fun _ -> Metrics.serve_tokens)))

(* Connection [conn]'s request list, drawn one op at a time. *)
type stream = {
  rng : Random.State.t;
  conn : int;
  tokens : cycle;
  hot : (string, cycle) Hashtbl.t;
  fresh : (string, cycle) Hashtbl.t;
  mutable next_idx : int;
  mutable next_fresh : int;
}

let stream ~seed conn =
  let rng = Random.State.make [| 0x5e7e; seed; conn |] in
  let lanes n =
    let t = Hashtbl.create 16 in
    Array.iter (fun tok -> if not (Hashtbl.mem t tok) then Hashtbl.add t tok (cycle rng n)) deck_tokens;
    t
  in
  {
    rng;
    conn;
    tokens = cycle rng (Array.length deck_tokens);
    hot = lanes hot_count;
    fresh = lanes base_count;
    next_idx = 0;
    next_fresh = 0;
  }

let next st =
  let hot = Random.State.bool st.rng in
  let token = deck_tokens.(draw st.tokens) in
  let inst =
    if hot then Hot (draw (Hashtbl.find st.hot token))
    else begin
      (* fresh ids interleave across the two connections: never shared *)
      let id = (2 * st.next_fresh) + st.conn in
      st.next_fresh <- st.next_fresh + 1;
      Fresh { id; base = draw (Hashtbl.find st.fresh token) }
    end
  in
  let text = Random.State.int st.rng 4 = 0 in
  let op = { conn = st.conn; idx = st.next_idx; inst; token; text } in
  st.next_idx <- st.next_idx + 1;
  op

let describe (op : op) =
  Printf.sprintf "conn %d op %d %s %s %s" op.conn op.idx
    (match op.inst with
    | Hot h -> Printf.sprintf "hot %d" h
    | Fresh { id; base } -> Printf.sprintf "fresh %d base %d" id base)
    op.token
    (if op.text then "text" else "binary")

(* The programs behind the ops. *)
type instances = {
  hot : Problem.t array;
  hot_binary : string array;
  hot_text : string array;
  base : Problem.t array;
  stride : int;  (* exceeds every base vertex id *)
}

let generate () =
  let root = Seed.of_int corpus_seed in
  let ssa family i =
    (Rc_challenge.Challenge.generate
       ~seed:(Seed.to_int (Seed.split (Seed.split root family) i))
       ~k:6 ())
      .problem
  in
  let hot = Array.init hot_count (ssa 0) and base = Array.init base_count (ssa 1) in
  let max_id =
    Array.fold_left (fun m (p : Problem.t) -> max m (G.max_vertex p.graph)) 0 base
  in
  {
    hot;
    hot_binary = Array.map Io.to_binary hot;
    hot_text = Array.map Io.print hot;
    base;
    stride = max_id + 1;
  }

let relabel (p : Problem.t) off =
  Problem.make
    ~graph:(G.map_vertices (fun v -> v + off) p.graph)
    ~affinities:
      (List.map (fun (a : Problem.affinity) -> ((a.u + off, a.v + off), a.weight)) p.affinities)
    ~k:p.k

let problem xs = function
  | Hot h -> xs.hot.(h)
  | Fresh { id; base } -> relabel xs.base.(base) ((1 + id) * xs.stride)

let payload xs op =
  match op.inst with
  | Hot h -> if op.text then xs.hot_text.(h) else xs.hot_binary.(h)
  | Fresh _ ->
      let p = problem xs op.inst in
      if op.text then Io.print p else Io.to_binary p

let solve_frame xs op =
  Server.Wire.encode_frame ~typ:Server.Wire.req_solve
    (Server.Wire.solve_payload ~strategy:op.token
       ~encoding:(if op.text then `Text else `Binary)
       (payload xs op))

let flush_frame = Server.Wire.encode_frame ~typ:Server.Wire.req_flush ""

let write_all fd s =
  let rec go ofs =
    if ofs < String.length s then
      go (ofs + Unix.write_substring fd s ofs (String.length s - ofs))
  in
  go 0

let op_list ~seed ~ops =
  let buf = Buffer.create 4096 in
  List.iter
    (fun conn ->
      let st = stream ~seed conn in
      for _ = 1 to ops do
        Buffer.add_string buf (describe (next st));
        Buffer.add_char buf '\n'
      done)
    [ 0; 1 ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

(* Servers started and not yet stopped; any still running when the
   program exits, by an exception too, are killed and reaped. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let start_server exe =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    [|
      exe; "serve"; "--listen"; "127.0.0.1:0"; "--domains"; string_of_int domains;
      "--cache-entries"; string_of_int cache_entries;
    |]
  in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  live := pid :: !live;
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let rec ready () =
    match input_line out with
    | exception End_of_file -> failwith "server exited before listening"
    | l -> (
        match Scanf.sscanf l "serving on %[^:]:%d" (fun _ port -> port) with
        | port -> port
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> ready ())
  in
  { pid; port = ready (); out }

let connect s = Client.connect_tcp "127.0.0.1" s.port

let recv_answer fd =
  match Client.recv fd with
  | Client.Resp r -> r
  | Client.Eof -> failwith "server closed the connection"

(* Counters from STATS on a fresh connection, once no other session is
   live (a session publishes its tallies when it ends). *)
let stats s =
  let rec attempt n =
    let fd = connect s in
    Client.send_stats fd;
    let text =
      match recv_answer fd with Client.Stats t -> t | _ -> failwith "STATS: unexpected reply"
    in
    Client.close fd;
    let counters =
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)
    in
    if List.assoc_opt "active_connections" counters = Some 1 || n = 0 then counters
    else begin
      Unix.sleepf 0.02;
      attempt (n - 1)
    end
  in
  attempt 100

let stop_server s =
  (try
     let fd = connect s in
     Client.send_shutdown fd;
     let rec until_bye () =
       match Client.recv fd with
       | Client.Resp Client.Bye | Client.Eof -> ()
       | Client.Resp _ -> until_bye ()
     in
     until_bye ();
     Client.close fd
   with _ -> Unix.kill s.pid Sys.sigkill);
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live;
  close_in s.out

(* Warm-up: every hot instance under every token and [all], one batch,
   so the timed hot requests read the cache. *)
let warm_up s xs =
  let fd = connect s in
  let ops =
    List.concat_map
      (fun h ->
        List.map
          (fun token -> { conn = -1; idx = 0; inst = Hot h; token; text = false })
          ("all" :: Metrics.serve_tokens))
      (List.init hot_count Fun.id)
  in
  write_all fd (String.concat "" (List.map (solve_frame xs) ops) ^ flush_frame);
  List.iter (fun _ -> ignore (recv_answer fd)) ops;
  Client.close fd

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type served = { op : op; latency_ms : float; reply : Client.response }

let drive s xs ~seed ~conn ~size ~deadline =
  let fd = connect s in
  let st = stream ~seed conn in
  let out = ref [] in
  while st.next_idx < min_ops || now () < deadline do
    let ops = List.init size (fun _ -> next st) in
    let bytes = String.concat "" (List.map (solve_frame xs) ops) ^ flush_frame in
    let t0 = now () in
    write_all fd bytes;
    let replies = List.map (fun _ -> recv_answer fd) ops in
    let ms = (now () -. t0) *. 1e3 in
    List.iter2 (fun op reply -> out := { op; latency_ms = ms; reply } :: !out) ops replies
  done;
  Client.close fd;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* In-process replay of the server's pipeline, for the layer split     *)
(* ------------------------------------------------------------------ *)

(* The strategies whose answers the server certifies. *)
let server_claims (s : Strategies.t) =
  match s with
  | Strategies.Aggressive | Strategies.Irc _ -> []
  | _ -> [ Certify.Conservative ]

let strategies_of token =
  if token = "all" then Strategies.all_heuristics else [ strategy_of_token token ]

(* One op through the public functions the server's pipeline calls:
   decode and hash always; profile, solve, render and certify on a
   cache miss. *)
let replay xs (sv : served) =
  let op = sv.op in
  let bytes = payload xs op in
  Trace.span ~op:op.idx "bench.op" (fun () ->
      let p =
        if op.text then
          Trace.span "challenge.decode_text" (fun () -> Result.get_ok (Io.parse bytes))
        else
          Trace.span "challenge.decode_binary" (fun () -> Result.get_ok (Io.of_binary bytes))
      in
      ignore (Trace.span "challenge.hash" (fun () -> Io.canonical_hash p));
      let hit = match sv.reply with Client.Answer a -> a.cache_hit | _ -> false in
      if not hit then begin
        ignore (Trace.span "analysis.profile" (fun () -> Rc_analysis.Profile.analyze p));
        let solve s =
          (s, Strategies.run_cfg Strategies.default_config s p)
        in
        let sols =
          if op.token = "all" then
            Trace.span "core.solve_all" (fun () ->
                List.map
                  (fun s -> Trace.span ("core.all." ^ Strategies.name s) (fun () -> solve s))
                  Strategies.all_heuristics)
          else Trace.span ("core.solve." ^ op.token) (fun () -> List.map solve (strategies_of op.token))
        in
        Trace.span "engine.render" (fun () ->
            List.iter
              (fun (s, sol) ->
                ignore
                  (Format.asprintf "%a" Strategies.pp_report_canonical
                     (Strategies.report_of_solution s p sol)))
              sols);
        Trace.span "check.certify" (fun () ->
            List.iter
              (fun (s, sol) ->
                match server_claims s with
                | [] -> ()
                | claims -> ignore (Certify.certify_solution ~claims p sol))
              sols)
      end)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* [cw/tw] summed over the report lines of an answer text. *)
let weights text =
  match String.split_on_char '\n' text with
  | [] -> (0, 0)
  | _stats :: lines ->
      List.fold_left
        (fun (cw, tw) l ->
          match List.filter (( <> ) "") (String.split_on_char ' ' l) with
          | _name :: frac :: _ -> (
              match String.split_on_char '/' frac with
              | [ a; b ] -> (cw + int_of_string a, tw + int_of_string b)
              | _ -> (cw, tw))
          | _ -> (cw, tw))
        (0, 0) lines

let key op = (op.inst, op.token)

let run ~seed ~seconds ~traced ~server_exe =
  let values = Hashtbl.create 64 in
  let set k v = Hashtbl.replace values k v in
  let setup_s, (s, xs) =
    repeated_setup ~reps:5
      ~discard:(fun (s, _) -> stop_server s)
      (fun () ->
        let xs = generate () in
        let s = start_server server_exe in
        warm_up s xs;
        (s, xs))
  in
  let before = stats s in
  let budget = if traced then seconds /. 2. else seconds in
  let t0 = now () in
  let deadline = t0 +. budget in
  let b = Domain.spawn (fun () -> drive s xs ~seed ~conn:1 ~size:batch ~deadline) in
  let a = drive s xs ~seed ~conn:0 ~size:1 ~deadline in
  let b = Domain.join b in
  let wall = now () -. t0 in
  let after = stats s in
  let rss = peak_rss_mb (string_of_int s.pid) in
  stop_server s;
  let delta k =
    float_of_int
      ((try List.assoc k after with Not_found -> 0) - try List.assoc k before with Not_found -> 0)
  in
  (* Correctness: every ANSWER is byte-equal to the one-shot answer for
     its instance and strategy, and certified. *)
  let all = a @ b in
  let expected = Hashtbl.create 1024 in
  List.iter (fun sv -> Hashtbl.replace expected (key sv.op) "") all;
  let keys = Array.of_seq (Hashtbl.to_seq_keys expected) in
  let texts =
    Rc_engine.Pool.with_pool ~domains (fun pool ->
        Rc_engine.Pool.run pool ~tasks:(Array.length keys) (fun i ->
            let inst, token = keys.(i) in
            Server.one_shot ~strategies:(strategies_of token) (problem xs inst)))
  in
  Array.iteri (fun i k -> Hashtbl.replace expected k texts.(i)) keys;
  let failed = ref 0 and why = ref None in
  List.iter
    (fun sv ->
      let bad m =
        incr failed;
        if !why = None then why := Some (describe sv.op ^ ": " ^ m)
      in
      match sv.reply with
      | Client.Answer { certified = false; _ } -> bad "answer not certified"
      | Client.Answer { text; _ } when text <> Hashtbl.find expected (key sv.op) ->
          bad "answer differs from the one-shot answer"
      | Client.Answer _ -> ()
      | Client.Error { code; message } -> bad (Printf.sprintf "error %d: %s" code message)
      | Client.Pong | Client.Stats _ | Client.Bye -> bad "unexpected reply")
    all;
  let attempted = List.length all in
  let lat sel = List.filter_map (fun sv -> if sel sv then Some sv.latency_ms else None) a in
  let a_ms = lat (fun _ -> true) in
  set "setup_s" setup_s;
  set "ops_per_s" (float_of_int attempted /. wall);
  set "latency_p50_ms" (Stats.percentile a_ms 50.);
  set "latency_p99_ms" (Stats.percentile a_ms 99.);
  (let cw, tw =
     List.fold_left
       (fun (cw, tw) sv ->
         if sv.op.idx < min_ops then
           let c, t = weights (Hashtbl.find expected (key sv.op)) in
           (cw + c, tw + t)
         else (cw, tw))
       (0, 0) all
   in
   set "coalesced_frac" (fraction cw tw));
  set "ok_share" (1. -. fraction !failed attempted);
  set "failed_share" (fraction !failed attempted);
  set "peak_rss_mb" rss;
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  set "engine.server.cache_hit_ratio" (hits /. (hits +. misses));
  set "engine.server.cache_lookups" (hits +. misses);
  set "engine.server.cache_evictions" (delta "cache_evictions");
  let is_hit sv = match sv.reply with Client.Answer r -> r.cache_hit | _ -> false in
  let hit_ms = lat is_hit and miss_ms = lat (fun sv -> not (is_hit sv)) in
  set "engine.server.hit_latency_p50_ms" (Stats.percentile hit_ms 50.);
  set "engine.server.hit_latency_p99_ms" (Stats.percentile hit_ms 99.);
  set "engine.server.miss_latency_p50_ms" (Stats.percentile miss_ms 50.);
  if traced then begin
    (* Connection A's ops replayed in-process: once untraced, once
       traced, so the two give the tracing overhead. *)
    let untraced_s, () = time (fun () -> List.iter (fun sv -> replay xs sv) a) in
    Trace.enabled := true;
    let traced_s, () = time (fun () -> List.iter (fun sv -> replay xs sv) a) in
    Trace.enabled := false;
    let spans = Trace.spans () in
    let n = float_of_int (List.length a) in
    let p50_us name = Stats.median (Trace.durations_ms spans name) *. 1e3 in
    set "challenge.decode_binary_us" (p50_us "challenge.decode_binary");
    set "challenge.decode_text_us" (p50_us "challenge.decode_text");
    set "challenge.hash_us" (p50_us "challenge.hash");
    set "analysis.profile_us" (p50_us "analysis.profile");
    List.iter
      (fun t -> set ("core.solve_us." ^ t) (p50_us ("core.solve." ^ t)))
      Metrics.serve_tokens;
    set "core.solve_ms.all" (Stats.median (Trace.durations_ms spans "core.solve_all"));
    set "core.chordal_incremental_share"
      (Stats.sum (Trace.durations_ms spans "core.all.chordal-incremental")
      /. Stats.sum (Trace.durations_ms spans "core.solve_all"));
    set "check.certify_us" (p50_us "check.certify");
    let layers = Trace.self_by_layer_ms spans in
    let layer l = (try Hashtbl.find layers l with Not_found -> 0.) /. n in
    List.iter
      (fun l -> set (l ^ ".self_ms") (layer l))
      [ "challenge"; "analysis"; "core"; "check"; "engine" ];
    let layers_ms =
      List.fold_left (fun acc l -> acc +. layer l) 0.
        [ "challenge"; "analysis"; "core"; "check"; "engine" ]
    in
    set "trace.residual_ms" (Stats.mean a_ms -. layers_ms);
    set "trace.overhead_ms" ((traced_s -. untraced_s) *. 1e3 /. n);
    (* Served miss latency minus the same op's replayed layers: wire,
       batching and queueing. *)
    let replayed = Hashtbl.create 256 in
    Array.iter
      (fun (sp : Trace.span) -> if sp.name = "bench.op" then Hashtbl.replace replayed sp.op (float_of_int (Trace.duration_ns sp) *. 1e-6))
      spans;
    set "engine.server.residual_ms"
      (Stats.median
         (List.filter_map
            (fun sv ->
              if is_hit sv then None
              else Option.map (fun r -> sv.latency_ms -. r) (Hashtbl.find_opt replayed sv.op.idx))
            a))
  end;
  {
    Metrics.correct = !failed = 0;
    attempted;
    failed = !failed;
    values;
    samples =
      [
        ("latency_p50_ms", List.length a_ms);
        ("latency_p99_ms", List.length a_ms);
        ("engine.server.hit_latency_p99_ms", List.length hit_ms);
        ("engine.server.miss_latency_p50_ms", List.length miss_ms);
        ("connection_b_ops", List.length b);
        ("cache_hits", int_of_float hits);
        ("cache_misses", int_of_float misses);
      ];
    notes = (match !why with None -> [] | Some m -> [ ("first_failure", Metrics.json_string m) ]);
  }
