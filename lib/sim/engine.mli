(** Discrete-event execution engine.

    Simulated cores are ordinary OCaml functions; whenever simulated work
    costs cycles they perform an internal effect, and the scheduler
    always resumes the task with the smallest virtual clock, so cores
    interleave exactly as their timing dictates.  Timed closures ([at])
    share the event queue — the NoC uses them to deliver posted writes.

    Fully deterministic: ties in time break by creation sequence.

    {2 Scheduling structure}

    Pending entries live in a preallocated integer-indexed {e arena}
    with a free list (parallel time/seq/kind/payload arrays), so
    steady-state scheduling allocates nothing.  The ready queue is an
    {e indexed wake-wheel}: entries due within a fixed cycle horizon sit
    in per-cycle slots (intrusive int chains through the arena, O(1)
    push and pop), while entries beyond the horizon wait in an overflow
    min-heap of arena indices keyed on [(time, seq)] and migrate into
    the wheel as the cursor advances.  Simulated time is monotonic —
    nothing is ever scheduled in the past — so each slot's FIFO order
    equals creation-sequence order and the wheel preserves the
    deterministic [(time, seq)] dequeue order of a plain heap, bit for
    bit, at a fraction of the cost on the simulator's hot path (polling
    loops wake every few cycles).

    When an advancing task would be the very next entry popped anyway,
    [consume] skips the suspend/resume round trip entirely (burning the
    sequence number the suspension would have taken, so all later
    tie-breaks are unchanged) — the dominant case in single-task phases
    and uncontended stretches. *)

exception Watchdog of int
(** A task exceeded [Config.max_cycles] — livelock guard. *)

exception Deadlock of string

exception Power_cut of int
(** A scheduled whole-machine power failure fired at the carried cycle:
    every tile dies and every non-durable byte is dropped.  Raised out
    of {!run} by the machine's cut closure (see
    [Config.power_cut_prob]); never raised when the cut is disarmed. *)

type t

val create : Config.t -> t

val stats : t -> Stats.t
(** The per-core cycle accounts every [consume] writes into. *)

val probe : t -> Probe.t
(** The engine's instrumentation hook; the machine, NoC and lock layers
    emit into it, tracing tools subscribe to it. *)

val spawn : ?start:int -> t -> core:int -> (unit -> unit) -> unit
(** Start a computation on [core].  Several tasks may share a core; they
    interleave at consume points (cooperative threads). *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule a closure at an absolute time. *)

val live_tasks : t -> int
(** Spawned tasks that have not yet finished.  The power-cut closure
    consults this so a cut scheduled past the end of the workload is a
    no-op instead of a spurious {!Power_cut}. *)

val at_indexed : t -> time:int -> (int -> unit) -> int -> unit
(** Allocation-free variant of {!at}: schedule [fn arg] at an absolute
    time.  [fn] should be a preallocated closure — the per-event state
    travels as the [int] argument through the engine's arena, so
    scheduling it allocates nothing. *)

val core_id : t -> int
(** The core of the currently running task.  Must be called from within
    a spawned computation. *)

val now : t -> int
(** The current task's virtual time. *)

val consume : t -> Stats.category -> int -> unit
(** Advance the current core's clock by [n] cycles, attributed to the
    category. *)

val idle : t -> int -> unit
(** Advance the clock without statistics (pure waiting). *)

val poll_wait :
  t -> cat:Stats.category -> quantum:int -> pred:(unit -> bool) -> unit
(** [poll_wait t ~cat ~quantum ~pred] behaves exactly like

    {[ while not (pred ()) do consume t cat quantum done ]}

    — same stall accounting, same clock trajectory, same sequence-number
    burns, same watchdog — but once the task suspends, the scheduler
    re-evaluates [pred] itself at every wake and resumes the fiber only
    when it holds.  Suspended waiters due at the same cycle with the same
    [quantum] share one queue entry (a {e gang}): the scheduler re-checks
    them in order, re-queues the failed ones in one splice, and a failed
    re-check allocates nothing and costs no fiber switch.  The order in
    which predicates are evaluated, and hence the state each evaluation
    sees, is the plain loop's.

    [pred] must be {e pure with respect to the simulation}: it may read
    engine or host bookkeeping state (including {!now}) but must not
    consume cycles, access simulated memory, or mutate anything.  It is
    called both from the polling task and from the scheduler loop (with
    the task's identity installed, so {!now} and {!core_id} are valid
    either way). *)

val run : t -> unit
(** Run until every task has finished and every event has fired.
    @raise Watchdog on livelock, [Deadlock] if tasks remain unrunnable. *)

val wall_time : t -> int
(** Time of the last processed entry — the run's wall-clock. *)
