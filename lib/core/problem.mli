(** Coalescing problem instances.

    An instance is an interference graph, a set of weighted affinities
    (one per move instruction, weight = execution frequency), and the
    number of registers [k] — the common input of every problem the
    paper studies (Sections 3–5). *)

type affinity = { u : Rc_graph.Graph.vertex; v : Rc_graph.Graph.vertex; weight : int }

type memo
(** The lazily built interference kernel behind {!kernel}. *)

type t = private {
  graph : Rc_graph.Graph.t;
  affinities : affinity list;
  k : int;
  memo : memo;
}
(** Private, so [{ p with graph = ... }] cannot pair a new graph with
    the old graph's kernel: every problem comes from {!make} or
    {!unchecked}, which start with no kernel. *)

val make :
  graph:Rc_graph.Graph.t ->
  affinities:((Rc_graph.Graph.vertex * Rc_graph.Graph.vertex) * int) list ->
  k:int ->
  t
(** Normalizes the affinity list: orders endpoints, merges duplicates by
    summing weights, drops self-affinities.  Raises [Invalid_argument]
    if an endpoint is not a vertex of the graph, a weight is negative,
    or [k <= 0].  Zero-weight affinities are legal and preserved: they
    carry no objective value but still name a move the solvers may
    remove, and the instance formats round-trip them exactly
    ({!Rc_challenge.Instance_io}). *)

val unchecked :
  graph:Rc_graph.Graph.t -> affinities:affinity list -> k:int -> t
(** The problem with exactly these fields, no normalization and no
    check: for transformations whose output already satisfies the
    {!make} invariants (presolve's sub-instances) and for tests that
    build invalid instances on purpose, which {!validate} then
    reports. *)

(** {1 The interference kernel}

    Every solver, the structural profile and the presolver work on a
    {!Rc_graph.Flat} view of [graph].  Converting the persistent graph
    walks every edge through [ISet] trees, several times the cost of
    copying a flat graph, so a problem converts it {e once}: {!kernel}
    is [Flat.of_graph graph], built on first use and kept.

    The kernel is frozen.  Nobody writes it: it is only copied
    ({!flat}, {!Rc_graph.Flat.copy}, {!Rc_graph.Flat.compact}) or read
    through paths that claim no scratch buffer
    ({!Rc_graph.Greedy_k.flat_is_greedy_k_colorable_readonly}, the
    queries).  That makes one kernel safe to share between domains:
    the sweep's cells of one instance, or the pool tasks of a server
    batch, all copy the same kernel.  Its epoch and undo log stay at
    zero for the problem's lifetime. *)

val kernel : t -> Rc_graph.Flat.t
(** The frozen kernel, [Flat.of_graph graph] under the default row
    policy.  The first call builds it (O(V + E log V)); later calls,
    from any domain, return the same value.  Never mutate it and never
    hand it to a function that claims its scratch buffers. *)

val greedy_k_colorable : t -> bool
(** Whether the uncoalesced graph is greedy-[k]-colorable: the
    precondition of the conservative solvers, answered read-only on
    the kernel. *)

val flat : ?rows:Rc_graph.Flat.rows -> t -> Rc_graph.Flat.t
(** A private mutable flat graph equal, field by field, to
    [Flat.of_graph ?rows graph]: {!Rc_graph.Flat.copy} of the kernel
    under the default policy, {!Rc_graph.Flat.compact} [~rows] of it
    under any other.  The starting point of every search. *)

(** One violation of the {!make} invariants, naming the offending
    affinity.  {!Constrained_affinity} is reported only under
    [~forbid_constrained:true]: affinities between interfering vertices
    are legitimate instance content (no coalescing can remove them —
    see {!constrained}), but transformations that promise to produce
    unconstrained instances can insist. *)
type error =
  | Nonpositive_k of int
  | Self_affinity of { v : Rc_graph.Graph.vertex; weight : int }
  | Unordered_affinity of {
      u : Rc_graph.Graph.vertex;
      v : Rc_graph.Graph.vertex;
    }
  | Negative_weight of {
      u : Rc_graph.Graph.vertex;
      v : Rc_graph.Graph.vertex;
      weight : int;
    }
  | Missing_endpoint of {
      u : Rc_graph.Graph.vertex;
      v : Rc_graph.Graph.vertex;
      missing : Rc_graph.Graph.vertex;
    }
  | Duplicate_affinity of {
      u : Rc_graph.Graph.vertex;
      v : Rc_graph.Graph.vertex;
    }
  | Constrained_affinity of {
      u : Rc_graph.Graph.vertex;
      v : Rc_graph.Graph.vertex;
      weight : int;
    }

val validate : ?forbid_constrained:bool -> t -> (unit, error list) result
(** Re-checks the {!make} invariants (useful when a transformation
    produced the instance directly), collecting {e every} violation in
    affinity-list order rather than stopping at the first.
    [forbid_constrained] (default [false]) additionally rejects
    affinities whose endpoints interfere. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val total_weight : t -> int
(** Sum of all affinity weights. *)

val constrained : t -> affinity list
(** Affinities whose endpoints interfere — no coalescing can ever remove
    them. *)

val unconstrained : t -> affinity list

val stats : t -> string
(** One-line summary: vertices, edges, affinities, weight, k. *)

val pp : Format.formatter -> t -> unit
