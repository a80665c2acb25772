(** Optimistic coalescing (Park–Moon; Section 5).

    Phase 1 coalesces affinities aggressively, ignoring colorability.
    Phase 2 de-coalesces: while the merged graph is not
    greedy-k-colorable, pick a merged class inside the stuck residue
    (the subgraph where every vertex has degree >= k) and split it back
    into its original vertices, preferring classes that lose little
    affinity weight per unit of residue degree.  Phase 3 re-coalesces
    the given-up affinities one by one with the brute-force conservative
    test, recovering merges that the coarse class splitting threw away
    (Park–Moon's secondary re-coalescing).

    Finding the optimal de-coalescing is NP-complete even on chordal
    graphs for k = 4 (Theorem 6); {!Exact.decoalesce} gives the optimum
    on small instances. *)

type scoring =
  | Degree_per_weight
      (** residue degree freed per unit of affinity weight given up —
          the default, balancing colorability progress against cost *)
  | Weight_only  (** split the cheapest class first *)
  | Degree_only  (** split the class with the highest residue degree *)

val coalesce :
  ?rows:Rc_graph.Flat.rows ->
  ?scoring:scoring ->
  Problem.t ->
  Coalescing.solution
(** Requires the input graph to be greedy-k-colorable; raises
    [Invalid_argument] otherwise (the de-coalescing loop could not
    terminate on an uncolorable base graph).  The phase-3 re-coalescing
    fixpoint runs on the {!Conservative.Engine}.

    {!Strategies.run_cfg} calls this primitive with the default
    [?scoring] and the config's [rows]; the other scorings are for the
    victim-scoring ablation and the tests. *)

val decoalesce_greedy :
  ?rows:Rc_graph.Flat.rows ->
  ?scoring:scoring -> Problem.t -> Coalescing.state -> Coalescing.state
(** Phase 2 alone, exposed for tests, the Theorem 6 experiment and the
    de-coalescing ablation: splits classes of the given all-merged
    state until the graph is greedy-k-colorable.

    Runs on the {!Rc_graph.Flat} kernel: one mirror of the base graph,
    and per iteration a checkpointed replay of the surviving class
    merges followed by a rollback — victim scoring and tie-breaking
    match the persistent {!Reference} path exactly. *)

(** {1 Reference implementation}

    The pre-speculation code path, kept as the test suite's oracle (the
    differential suite holds the flat loop to it; no production path
    calls it): every de-coalescing iteration rebuilds the merge state
    from its classes on the persistent representation. *)

module Reference : sig
  val coalesce : ?scoring:scoring -> Problem.t -> Coalescing.solution

  val decoalesce_greedy :
    ?scoring:scoring -> Problem.t -> Coalescing.state -> Coalescing.state
end
