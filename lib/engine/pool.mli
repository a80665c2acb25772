(** Fixed-size domain pool with a chunked work queue and deterministic,
    index-ordered result merge.

    The evaluation engine's unit of work is "task [i] of [tasks]": a
    pure-by-contract function of the task index (plus whatever seed
    stream the caller derives from that index, see {!Seed}).  {!run}
    fans the index space out over the pool's domains through a shared
    atomic cursor — domains grab chunks of consecutive indices until
    the cursor runs off the end — and writes each result into slot [i]
    of the output array.  Scheduling therefore affects only {e when} a
    task runs, never {e where its result lands}: the merged output is
    index-ordered and byte-identical at any domain count, which is the
    engine's determinism contract.

    Thread-safety contract for tasks: a task must not touch mutable
    state shared with other tasks.  One flat kernel per task is the
    repo-wide rule; the kernel monitors and sanitizer counters are
    domain-local ({!Rc_check.Sanitize}), and every worker domain
    installs the sanitizer on startup when the dev-checked profile or
    [RC_CHECKED] enables it, so parallel runs are audited exactly like
    sequential ones. *)

type t

val create : domains:int -> t
(** A pool driving [domains] domains total: the caller's domain (which
    participates in every {!run}) plus [domains - 1] spawned workers
    that block between runs.  Spawning is the expensive part (~ms);
    create one pool per sweep session, not per call.  Raises
    [Invalid_argument] (see {!validate_domains}) before spawning
    anything when [domains] is outside [1 .. max_domains]. *)

val max_domains : int
(** 128: the OCaml 5.1 runtime's limit on live domains, the main
    domain included.  Spawning past it fails inside the runtime. *)

val validate_domains : int -> unit
(** [Invalid_argument], naming {!max_domains}, unless the count is in
    [1 .. max_domains].  Shared by {!create} and the CLI's [--domains]
    parser, so both refuse the same counts with the same message. *)

val domains : t -> int
(** The fixed domain count, including the caller's. *)

val run : ?chunk:int -> t -> tasks:int -> (int -> 'a) -> 'a array
(** [run pool ~tasks f] is [[| f 0; f 1; ...; f (tasks - 1) |]],
    computed on all of the pool's domains.  [chunk] is the number of
    consecutive indices a domain claims per queue round-trip (default
    1: sweep tasks are coarse; raise it for many tiny tasks).

    If any task raises, the remaining queue is abandoned (running
    chunks finish), and the exception of the lowest-indexed failed
    task that ran is re-raised in the caller with its backtrace.
    Every task runs under an ambient [Rc_core.Cancel] probe wired to
    the run's abort flag, so cancellable solvers (exact searches,
    portfolio races) inside in-flight sibling tasks stop early once a
    task fails; their [Cancel.Stopped] unwinds are casualties of the
    abort, never reported as the run's error.

    Safe to call from multiple domains concurrently: a submission
    mutex serializes whole runs (the server's per-connection sessions
    all submit batches to one shared pool and queue here), so each run
    still owns every pool domain and keeps its determinism contract.
    While one run computes, other submitters block — their connection
    I/O, living on their own domains, does not.

    Not reentrant: a task must not call [run] on the same pool (the
    submission mutex makes that a self-deadlock). *)

val shutdown : t -> unit
(** Joins the worker domains.  The pool must not be used afterwards;
    idempotent. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], apply, then {!shutdown} (also on exception). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — the [--domains] default. *)
