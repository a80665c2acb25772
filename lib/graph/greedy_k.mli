(** Greedy-k-colorability (Chaitin's simplification scheme).

    A graph is greedy-k-colorable iff repeatedly removing some vertex of
    degree [< k] empties the graph (Section 2.2 of the paper).  The order
    of removals does not matter, so the test is deterministic.  The
    smallest k for which a graph is greedy-k-colorable is the coloring
    number col(G), computed from a smallest-last order.

    All entry points below run on the {!Flat} kernel internally — an
    array worklist for the elimination scheme and a bucket queue for the
    smallest-last order, both O(V + E).  The [flat_*] variants operate
    directly on an existing {!Flat.t} (speaking dense indices) so that
    merge-heavy searches can re-test colorability after speculative
    mutations without rebuilding anything. *)

val is_greedy_k_colorable : Graph.t -> int -> bool

val elimination_order : Graph.t -> int -> Graph.vertex list option
(** [elimination_order g k] returns the removal order used by the greedy
    scheme (first removed first), or [None] if the graph is not
    greedy-k-colorable. *)

val color : Graph.t -> int -> Coloring.coloring option
(** Colors a greedy-k-colorable graph with at most [k] colors by
    assigning colors in reverse elimination order — the select phase of a
    Chaitin-style allocator. *)

val coloring_number : Graph.t -> int
(** col(G) = 1 + max over the smallest-last suffixes of their minimum
    degree; the smallest [k] such that [g] is greedy-k-colorable.  Returns
    0 on the empty graph. *)

val smallest_last_order : Graph.t -> Graph.vertex list
(** A smallest-last order: each vertex has minimum degree in the subgraph
    induced by itself and the vertices after it.  Returned first-removed
    first, i.e. the reverse of the usual "last" naming. *)

val witness_subgraph : Graph.t -> int -> Graph.ISet.t option
(** If [g] is not greedy-k-colorable, returns the canonical witness: the
    (maximal) subgraph in which every vertex has degree at least [k]
    (the residue of the elimination scheme).  [None] when greedy-k-
    colorable. *)

(** {1 Flat-kernel entry points}

    These read the graph but never mutate it; except for
    {!flat_is_greedy_k_colorable_readonly}, they do claim both scratch
    buffers of the {!Flat.t}. *)

val flat_is_greedy_k_colorable : Flat.t -> int -> bool

val flat_is_greedy_k_colorable_readonly : Flat.t -> int -> bool
(** The same verdict as {!flat_is_greedy_k_colorable}, but the degree,
    state and worklist arrays are allocated per call: it claims no
    scratch buffer and writes nothing in the {!Flat.t}.  Several
    domains may run it at once on one frozen snapshot (the flat graph
    a committed {!Rc_core.Coalescing} state keeps). *)

val flat_eliminate : Flat.t -> int -> order:int array -> int
(** Low-level elimination pass behind every probe above: peels
    degree-[< k] vertices into [order] (which must be at least
    [capacity]-sized) and returns the number removed — the graph is
    greedy-k-colorable iff that equals {!Flat.num_live}.  Afterwards
    [Flat.scratch2] holds 1 exactly on the removed indices, so the
    residue is the set of live indices still marked 0.  Probe-heavy
    searches call this directly with a caller-owned [order] buffer to
    avoid the per-call allocation of the convenience wrappers. *)

val flat_elimination_order : Flat.t -> int -> int list option
(** Elimination order over dense indices. *)

val flat_residue : Flat.t -> int -> int list option
(** Dense-index version of {!witness_subgraph}: [Some residue] (the
    live indices of the maximal subgraph with all degrees >= k, in
    decreasing order) when the graph is not greedy-k-colorable, [None]
    when it is.  Merge-heavy searches use this to pick de-coalescing
    victims without leaving the flat representation. *)

val flat_smallest_last : Flat.t -> order:int array -> int
(** Writes a smallest-last order (dense indices, first removed first)
    into [order.(0 .. num_live - 1)] ([order] must be at least
    [capacity]-sized) and returns the degeneracy, i.e. col(G) - 1.
    Returns 0 on an empty graph. *)

(** {1 Reference implementations}

    The pre-flat-kernel code paths on the persistent {!Graph}
    representation, kept as the baseline for equivalence property tests
    and the old-vs-new benchmark trajectory ([bench --json]). *)

module Reference : sig
  val is_greedy_k_colorable : Graph.t -> int -> bool
  val elimination_order : Graph.t -> int -> Graph.vertex list option
  val smallest_last_order : Graph.t -> Graph.vertex list
  val coloring_number : Graph.t -> int
end
