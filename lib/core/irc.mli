(** Iterated register coalescing (George & Appel, TOPLAS 1996) — the
    classical framework the paper's introduction describes: interleaved
    simplify / coalesce / freeze / potential-spill worklists, a select
    stack, and optimistic coloring.

    Coalescing uses Briggs' and/or George's conservative tests; since
    there are no precolored registers here, George's test is applied in
    both orientations when enabled (Section 4 notes this is sound once
    spilling is settled).  When the select phase finds an actual spill,
    the spilled vertices are removed from the instance and the whole
    allocation restarts — the graph-level analogue of Chaitin's rebuild
    loop.

    Each round works on a private copy of the instance's kernel
    ({!Problem.flat}), which [combine] grows with the edges it adds.
    The answer is built on a second, clean copy: the final round's
    coalesced nodes are merged into their aliases there
    ({!Coalescing.of_classes}), and the solution's state keeps that
    graph frozen, so {!Coalescing.is_conservative} answers on it
    without a persistent graph. *)

type rule = Briggs_only | George_only | Briggs_and_george

type result = {
  solution : Coalescing.solution;  (** coalesces performed *)
  coloring : Rc_graph.Coloring.coloring;
      (** colors for all non-spilled original vertices (members of a
          coalesced class share a color) *)
  spilled : Rc_graph.Graph.vertex list;  (** actual spills, original ids *)
  rounds : int;  (** number of build/color rounds (1 = no spill) *)
}

val allocate : ?rule:rule -> ?biased:bool -> Problem.t -> result
(** Runs IRC to completion.  The coloring uses at most [k] colors and is
    valid on the subgraph induced by non-spilled vertices (checked by
    tests, not by this function).  With [biased] (default [false]) the
    select phase prefers, among the allowed colors, one already held by
    a move partner — "biased coloring" from the paper's Section 1: an
    uncoalesced move whose endpoints happen to receive the same color
    still disappears from the final code even though the solution does
    not count it as coalesced. *)

val same_color_moves : result -> Problem.affinity list -> Problem.affinity list
(** The affinities whose two endpoints received the same color (a
    superset of the coalesced ones when the bias succeeds) — the moves
    that actually vanish from the final code. *)
