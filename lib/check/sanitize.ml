module Flat = Rc_graph.Flat
module Graph = Rc_graph.Graph
module Coalescing = Rc_core.Coalescing
module Speculation = Coalescing.Speculation

let profile = Build_profile.profile

let enabled () =
  String.equal profile "dev-checked"
  ||
  match Sys.getenv_opt "RC_CHECKED" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

(* All sanitizer state is domain-local, mirroring the monitor hooks it
   drives (Flat and Speculation fire the monitor of the installing
   domain only).  Each sweep-engine worker domain therefore audits its
   own kernels with its own counters — no cross-domain races, and
   [events_seen] read from a domain reports that domain's audits. *)
type state = {
  mutable events : int;
  mutable dense_audits : int;
  mutable sparse_audits : int;
  (* Serve-path observability (PR 7): the server and its pool tasks
     bump these on every decoded/rejected frame, cache decision and
     certification verdict, so an RC_CHECKED=1 serving session is
     auditable end to end through the same flush-at-join machinery as
     the kernel counters. *)
  mutable frames_decoded : int;
  mutable frames_rejected : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_evictions : int;
  (* Profile-cache traffic (PR 9): the server's Static_profile route
     reuses cached structural profiles; hits here are solves that
     skipped a fresh Profile.analyze. *)
  mutable profile_hits : int;
  mutable profile_misses : int;
  mutable certified_ok : int;
  mutable certified_failed : int;
  mutable cursor : int;
  mutable is_installed : bool;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        events = 0;
        dense_audits = 0;
        sparse_audits = 0;
        frames_decoded = 0;
        frames_rejected = 0;
        cache_hits = 0;
        cache_misses = 0;
        cache_evictions = 0;
        profile_hits = 0;
        profile_misses = 0;
        certified_ok = 0;
        certified_failed = 0;
        cursor = 0;
        is_installed = false;
      })

let state () = Domain.DLS.get dls

(* Cross-domain aggregation.  Audits bump the domain-local record only
   (no contended atomics on the per-event path); {!flush} folds a
   domain's tally into these totals.  The sweep engine's pool flushes
   every participating domain at the end of each run, so reading the
   counters from the caller after a parallel sweep sees the whole
   fleet's audits, not just the calling domain's share. *)
let total_events = Atomic.make 0
let total_dense = Atomic.make 0
let total_sparse = Atomic.make 0
let total_frames_decoded = Atomic.make 0
let total_frames_rejected = Atomic.make 0
let total_cache_hits = Atomic.make 0
let total_cache_misses = Atomic.make 0
let total_cache_evictions = Atomic.make 0
let total_profile_hits = Atomic.make 0
let total_profile_misses = Atomic.make 0
let total_certified_ok = Atomic.make 0
let total_certified_failed = Atomic.make 0

let flush () =
  let st = state () in
  let fold total v =
    if v > 0 then ignore (Atomic.fetch_and_add total v)
  in
  fold total_events st.events;
  st.events <- 0;
  fold total_dense st.dense_audits;
  st.dense_audits <- 0;
  fold total_sparse st.sparse_audits;
  st.sparse_audits <- 0;
  fold total_frames_decoded st.frames_decoded;
  st.frames_decoded <- 0;
  fold total_frames_rejected st.frames_rejected;
  st.frames_rejected <- 0;
  fold total_cache_hits st.cache_hits;
  st.cache_hits <- 0;
  fold total_cache_misses st.cache_misses;
  st.cache_misses <- 0;
  fold total_cache_evictions st.cache_evictions;
  st.cache_evictions <- 0;
  fold total_profile_hits st.profile_hits;
  st.profile_hits <- 0;
  fold total_profile_misses st.profile_misses;
  st.profile_misses <- 0;
  fold total_certified_ok st.certified_ok;
  st.certified_ok <- 0;
  fold total_certified_failed st.certified_failed;
  st.certified_failed <- 0

let events_seen () = Atomic.get total_events + (state ()).events

(* Per-representation audit tally: [check_vertex] audits whichever
   physical row the sampled index currently has, so these counters let
   tests prove the bitset path (word/list agreement, popcount-vs-degree)
   was actually exercised, not just the sparse one. *)
let dense_rows_audited () = Atomic.get total_dense + (state ()).dense_audits
let sparse_rows_audited () = Atomic.get total_sparse + (state ()).sparse_audits

(* Serve-path counters.  Always counted (one domain-local increment per
   frame or verdict — noise next to a socket read), so the STATS frame
   and the shutdown summary are meaningful in release serving too, not
   only under RC_CHECKED. *)
let note_frame_decoded () =
  let st = state () in
  st.frames_decoded <- st.frames_decoded + 1

let note_frame_rejected () =
  let st = state () in
  st.frames_rejected <- st.frames_rejected + 1

let note_cache_hit () =
  let st = state () in
  st.cache_hits <- st.cache_hits + 1

let note_cache_miss () =
  let st = state () in
  st.cache_misses <- st.cache_misses + 1

let note_cache_evicted () =
  let st = state () in
  st.cache_evictions <- st.cache_evictions + 1

let note_profile_hit () =
  let st = state () in
  st.profile_hits <- st.profile_hits + 1

let note_profile_miss () =
  let st = state () in
  st.profile_misses <- st.profile_misses + 1

let note_certified ~ok =
  let st = state () in
  if ok then st.certified_ok <- st.certified_ok + 1
  else st.certified_failed <- st.certified_failed + 1

let frames_decoded () =
  Atomic.get total_frames_decoded + (state ()).frames_decoded

let frames_rejected () =
  Atomic.get total_frames_rejected + (state ()).frames_rejected

let serve_cache_hits () = Atomic.get total_cache_hits + (state ()).cache_hits

let serve_cache_misses () =
  Atomic.get total_cache_misses + (state ()).cache_misses

let serve_cache_evictions () =
  Atomic.get total_cache_evictions + (state ()).cache_evictions

let serve_profile_hits () =
  Atomic.get total_profile_hits + (state ()).profile_hits

let serve_profile_misses () =
  Atomic.get total_profile_misses + (state ()).profile_misses

let certified_ok () = Atomic.get total_certified_ok + (state ()).certified_ok

let certified_failed () =
  Atomic.get total_certified_failed + (state ()).certified_failed

(* Portfolio-race observability (PR 10).  Races are orders of magnitude
   rarer than frames or kernel events (one per [exact:race] solve), so
   these skip the domain-local staging: one mutex hold per race keeps
   the per-backend win table consistent across racing domains, and the
   totals are visible to STATS and tests immediately — no flush
   ordering to get right.  Invariants the portfolio suite pins: the win
   counts sum to [races_run], and every race's losers are accounted as
   cancelled or finished. *)
let race_mu = Mutex.create ()
let races = ref 0
let race_wins_tbl : (string, int) Hashtbl.t = Hashtbl.create 8
let race_cancelled = ref 0
let race_finished = ref 0
let race_worst_latency = ref 0

let note_race_outcome (o : Rc_core.Portfolio.outcome) =
  Mutex.lock race_mu;
  incr races;
  Hashtbl.replace race_wins_tbl o.winner
    (1
    +
    match Hashtbl.find_opt race_wins_tbl o.winner with
    | Some n -> n
    | None -> 0);
  race_cancelled := !race_cancelled + o.losers_cancelled;
  race_finished := !race_finished + o.losers_finished;
  if o.cancel_latency_ns > !race_worst_latency then
    race_worst_latency := o.cancel_latency_ns;
  Mutex.unlock race_mu

let read_race r =
  Mutex.lock race_mu;
  let v = !r in
  Mutex.unlock race_mu;
  v

let races_run () = read_race races
let race_losers_cancelled () = read_race race_cancelled
let race_losers_finished () = read_race race_finished
let race_worst_cancel_latency_ns () = read_race race_worst_latency

let race_wins () =
  Mutex.lock race_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) race_wins_tbl [] in
  Mutex.unlock race_mu;
  List.sort compare l

(* Arm the portfolio monitor as soon as the checking layer is linked:
   race provenance, like the serve counters, is always counted. *)
let () = Rc_core.Portfolio.set_monitor (Some note_race_outcome)

let fail fmt =
  Printf.ksprintf (fun m -> failwith ("Rc_check.Sanitize: " ^ m)) fmt

(* Rotating cursor over dense indices: each event audits a constant
   number of vertices, so a whole pass over the graph completes every
   O(capacity) events — O(1) amortized per event, and every vertex is
   eventually re-verified. *)
let vertices_per_event = 4

let sample_vertices f =
  let st = state () in
  let cap = Flat.capacity f in
  if cap > 0 then
    for _ = 1 to vertices_per_event do
      let v = st.cursor mod cap in
      if Flat.row_is_dense f v then st.dense_audits <- st.dense_audits + 1
      else st.sparse_audits <- st.sparse_audits + 1;
      Flat.check_vertex f v;
      st.cursor <- st.cursor + 1
    done

let on_flat_event ev (f : Flat.t) =
  let st = state () in
  st.events <- st.events + 1;
  if Flat.checkpoint_depth f < 0 then
    fail "negative checkpoint depth %d" (Flat.checkpoint_depth f);
  if Flat.num_edges f < 0 then fail "negative edge count %d" (Flat.num_edges f);
  if Flat.num_live f < 0 || Flat.num_live f > Flat.capacity f then
    fail "live count %d outside [0, %d]" (Flat.num_live f) (Flat.capacity f);
  (match ev with
  | Flat.Checkpointed c ->
      if Flat.log_position c <> Flat.log_length f then
        fail "checkpoint opened at log position %d, but the log has %d entries"
          (Flat.log_position c) (Flat.log_length f)
  | Flat.Rolled_back c ->
      if Flat.log_length f <> Flat.log_position c then
        fail
          "undo log unbalanced after rollback: checkpoint position %d, log \
           length %d"
          (Flat.log_position c) (Flat.log_length f);
      if Flat.checkpoint_depth f = 0 && Flat.log_length f <> 0 then
        fail "outermost rollback left %d undo-log entries" (Flat.log_length f)
  | Flat.Released c ->
      if Flat.checkpoint_depth f = 0 then begin
        if Flat.log_length f <> 0 then
          fail "outermost release left %d undo-log entries" (Flat.log_length f)
      end
      else if Flat.log_length f < Flat.log_position c then
        fail
          "undo log shorter than the released checkpoint: position %d, log \
           length %d"
          (Flat.log_position c) (Flat.log_length f));
  sample_vertices f

(* Full self_check on every Nth speculation event; commits always get
   the full audit (they happen once per search, not per probe). *)
let spec_period = 16

let on_spec_event ev (s : Speculation.spec) =
  let st = state () in
  st.events <- st.events + 1;
  match ev with
  | Speculation.Committed st ->
      Speculation.self_check s;
      Flat.check_invariants (Speculation.flat s);
      Option.iter Flat.check_invariants (Coalescing.snapshot st);
      (* The fast commit keeps a frozen copy OF the flat mirror as the
         committed graph, so comparing the two would be circular.
         Re-derive the result independently instead: replay the merge
         log onto the base state through the persistent [Graph.merge]
         path and compare graphs and classes.  This is the per-merge
         persistent graph surgery the fast commit avoids — paid only
         under the sanitizer, once per search — and reading
         [Coalescing.graph st] here also pays the snapshot's deferred
         persistent build, which release runs skip. *)
      let replayed =
        Speculation.replay (Speculation.base s) (Speculation.merge_log s)
      in
      if not (Graph.equal (Coalescing.graph replayed) (Coalescing.graph st))
      then
        fail
          "committed graph disagrees with the merge-log replay (%d/%d \
           vertices, %d/%d edges)"
          (Graph.num_vertices (Coalescing.graph st))
          (Graph.num_vertices (Coalescing.graph replayed))
          (Graph.num_edges (Coalescing.graph st))
          (Graph.num_edges (Coalescing.graph replayed));
      if Coalescing.classes replayed <> Coalescing.classes st then
        fail "committed classes disagree with the merge-log replay"
  | Speculation.Merged | Speculation.Rolled_back | Speculation.Released ->
      if st.events mod spec_period = 0 then Speculation.self_check s

let install () =
  Flat.set_monitor (Some on_flat_event);
  Speculation.set_monitor (Some on_spec_event);
  (state ()).is_installed <- true

let uninstall () =
  Flat.set_monitor None;
  Speculation.set_monitor None;
  (state ()).is_installed <- false

let installed () = (state ()).is_installed

let install_if_enabled () =
  if enabled () then install ();
  installed ()
