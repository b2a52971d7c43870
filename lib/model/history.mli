(** Validation of observed runs against the PMC model.

    A history is the operation sequence one run actually issued, with the
    value each read returned.  [check] replays it through the Table-I
    transition and reports everything the model forbids.  The simulator
    back-ends are validated by feeding their traces through this
    checker. *)

type event =
  | E_read of { proc : int; loc : int; value : int }
  | E_write of { proc : int; loc : int; value : int }
  | E_acquire of { proc : int; loc : int }
  | E_release of { proc : int; loc : int }
  | E_acquire_ro of { proc : int; loc : int }
      (** Read-only entry: gains the Table-I ≺S acquire edges but takes no
          lock — any number may be held concurrently. *)
  | E_release_ro of { proc : int; loc : int }
      (** Read-only exit: later acquires are ≺S-after it (writers wait for
          readers); no holder bookkeeping. *)
  | E_fence of { proc : int }

type violation =
  | Double_acquire of { loc : int; holder : int; proc : int }
  | Release_not_held of { loc : int; proc : int }
  | Unreadable_value of { op : Op.t; readable : int list }
  | Non_monotonic_reads of { first : Op.t; second : Op.t }
  | Cyclic_order
  | Write_outside_lock of { op : Op.t }

val pp_violation : Format.formatter -> violation -> unit

type report = { violations : violation list }
(** What {!check} found, in event order. *)

val ok : report -> bool

val check :
  ?require_locked_writes:bool -> ?init:(int -> int) -> procs:int ->
  locs:int -> event list -> report
(** Replay [events] (in observed issue order) and verify: lock
    well-formedness and mutual exclusion, every read value readable at its
    issue point (Def. 12), read monotonicity, and acyclicity of ≺.  With
    [require_locked_writes], also the discipline that every write happens
    under the location's lock.  [init] gives each location's initial
    value (default 0); it behaves as a write ordered before every
    operation, so reads with no ordered-before write may return it.

    This is the incremental checker: it never materializes the execution
    DAG (whose Table-I edge sets grow quadratically with the history) and
    instead carries per-(process, location) write frontiers across events
    as sparse rows of nonzero (writer, location) counts.  Each event
    costs time proportional to the nonzero frontier slots it touches,
    not to [procs² · locs].  It reports exactly the violations, in
    exactly the order, that the DAG-building definition (issue every
    event through {!Execution.execute}, answer every read with Def. 12
    on the resulting DAG) would. *)
