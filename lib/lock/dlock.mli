(** Asymmetric distributed lock, modelled after the paper's platform lock
    [Rutgers et al., IC-SAMOS 2012]: waiting cores spin only on their own
    local memory; the handover between tiles costs an explicit NoC
    transfer; re-acquiring a lock the core released last is nearly free.

    Besides the exclusive mode (implementing ≺S for entry_x/exit_x), the
    lock has a shared read-only mode: PMC explicitly allows "exclusive
    access ... alongside read-only access" (Section IV-E), and entry_ro
    of multi-word objects maps onto it.  Readers are admitted only while
    no exclusive holder or waiter is present, so writers do not starve. *)

type t
(** A distributed lock; per-core grant mailboxes live in the tiles'
    local memories. *)

val create : Pmc_sim.Machine.t -> t
(** Allocate a lock (one grant mailbox per core of the machine). *)

val reset_ids : unit -> unit
(** Restart lock-id allocation at 0 in the calling domain.  Ids are
    domain-local (they appear in traces and replay keys); resetting at
    the start of every independent run makes a run's trace a pure
    function of the run.  {!Pmc_apps.Runner.run} does this. *)

val acquire : t -> unit
(** Take the lock exclusively; FIFO among exclusive waiters.
    @raise Pmc_sim.Pmc_error.Error on re-entrant acquisition. *)

type outcome = Acquired | Timeout of { waited : int }
(** Result of a bounded acquisition; [waited] is the cycles spent
    polling before giving up. *)

val acquire_timeout : t -> timeout:int -> outcome
(** Bounded {!acquire}: poll with capped exponential backoff for at most
    [timeout] cycles, then withdraw from the waiter queue (bouncing back
    any grant already in flight, so the lock travels on to the next
    waiter) and return {!Timeout}.  A timeout is recorded in the fault
    plane's counters and trace ({!Pmc_sim.Probe.F_lock_timeout}).
    Unlike {!acquire}, the bounded wait polls with backoff — its timing
    under contention differs from the unbounded constant-interval poll.
    @raise Invalid_argument when [timeout <= 0].
    @raise Pmc_sim.Pmc_error.Error on re-entrant acquisition. *)

val release : t -> unit
(** @raise Pmc_sim.Pmc_error.Error when the caller does not hold the
    lock. *)

val acquire_ro : t -> unit
(** Join the reader group (shared mode). *)

val release_ro : t -> unit
(** Leave the reader group.
    @raise Pmc_sim.Pmc_error.Error when the caller is not a reader. *)

val holder : t -> int option
(** The core holding the lock exclusively, if any (host-side view, for
    tests and assertions — not a simulated read). *)

val last_transfer_from : t -> int
(** Tile the lock travelled from on the calling core's most recent
    exclusive {!acquire}, or -1 if that acquire involved no handover
    (local re-acquisition or first acquisition).  The DSM back-end uses
    this to piggyback the protected object's newest version on the grant
    burst (see {!Pmc_sim.Config.t.batched}). *)

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] brackets [f] with {!acquire}/{!release}; released on
    exception too. *)
