(** Dependency-free domain pool for deterministic parallel fan-out.

    The pool parallelizes "map an independent function over an array"
    while preserving the observable behaviour of the sequential map:
    results come back ordered by input index, and a failure re-raises
    the smallest-index exception (the one a left-to-right sequential map
    would have surfaced first).

    A pool of width 1 spawns no domains and runs every map inline — it
    {e is} the sequential map.  This is what backs the [--jobs N] flags
    of [pmc_bench], [pmc_chaos], [litmus_run] and [pmc_check]: the
    default [--jobs 1] is bit-for-bit today's behaviour, and [--jobs N]
    must only change wall-clock time, never output.

    Determinism contract for [f]: no mutable state shared between items.
    State that is per-machine (the simulator) or domain-local and reset
    per item ({!Pmc.Shared.reset_ids}) is fine. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts a pool of total width [jobs]: the calling
    domain plus [jobs - 1] worker domains.  [jobs = 1] starts no worker
    domains; [jobs = 0] uses [Domain.recommended_domain_count ()].
    Raises [Invalid_argument] on negative [jobs]. *)

val jobs : t -> int
(** Effective pool width (>= 1). *)

val map_ordered : t -> 'a array -> f:('a -> 'b) -> 'b array
(** [map_ordered t a ~f] computes [Array.map f a], distributing items
    over the pool.  Results are ordered by input index regardless of
    completion order.  If one or more applications of [f] raise, the
    whole batch still drains and the exception of the {e smallest}
    failing input index is re-raised with its original backtrace.

    Nested calls (an [f] that maps on the same pool) run inline rather
    than deadlock.  Must be called from the domain that owns the pool,
    one batch at a time. *)

val map_list_ordered : t -> 'a list -> f:('a -> 'b) -> 'b list
(** List convenience wrapper around {!map_ordered}. *)

(** {1 Persistent task queue}

    Batch maps fit the CLIs; a long-lived service ({!Pmc_serve}) accepts
    work over time instead.  [submit] enqueues one independent task;
    worker domains drain the queue whenever no batch map is claiming
    them.  Tasks must not raise (wrap them) and must follow the same
    determinism contract as [map_ordered]'s [f]. *)

val submit : t -> (unit -> unit) -> unit
(** [submit t task] enqueues [task].  On a pool of width >= 2 a worker
    domain picks it up; on a width-1 pool nothing runs it until the
    owner calls {!run_pending_one} — there are no worker domains.
    Thread-safe.  Raises [Invalid_argument] after {!shutdown}. *)

val run_pending_one : t -> bool
(** Run one queued task on the calling domain, inline; [false] when the
    queue is empty.  The width-1 execution path of a task-queue user. *)

val drain_tasks : t -> unit
(** Help run queued tasks on the calling domain, then block until every
    submitted task has completed. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  A pool is unusable
    after shutdown.  Submitted tasks that have not started are dropped
    (drain with {!drain_tasks} first if they matter). *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, including on exception. *)
