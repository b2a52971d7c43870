(** Handles for shared objects.

    The PMC annotations operate on whole shared objects of any size
    (Section V-A).  A handle carries identity, size, the lock that
    implements ≺S for the object, and the placement fields each back-end
    fills at allocation time. *)

type t = {
  id : int;
  name : string;
  size : int;                  (** bytes *)
  lock : Pmc_lock.Dlock.t;
  mutable sdram_addr : int;    (** SDRAM placement; -1 = none *)
  mutable dsm_off : int;       (** common local-memory offset; -1 = none *)
  mutable last_writer : int;   (** tile owning the newest version; -1 = none *)
  mutable version : int;
      (** Publication count of the object under DSM lazy release: bumped
          by an exit_x that wrote and by every flush
          (see {!Config.t.batched}). *)
  mutable seen : int array;
      (** Per-tile replica version ([-1] = unknown); [[||]] until
          {!dsm_track}. *)
  mutable seen_at : int array;
      (** Simulation time from which [seen.(tile)] holds — flush
          deliveries are posted writes that land later. *)
  mutable dirty_core : int;    (** tile with unpublished writes; -1 = clean *)
  mutable dirty_lo : int;      (** dirty byte range, inclusive start *)
  mutable dirty_hi : int;      (** dirty byte range, exclusive end *)
}

val atomic_threshold : unit -> int
(** Objects of at most this many bytes are atomic for entry_ro (no
    locking).  4 = the platform word (default); 1 = the paper's
    conservative byte rule; 0 = always lock.  Domain-local: a setting
    applies only to runs in the calling domain.  See DESIGN.md and the
    [ablate] bench. *)

val set_atomic_threshold : int -> unit
(** Set the calling domain's {!atomic_threshold}. *)

val is_atomic_sized : t -> bool
(** Whether entry_ro of this object may skip locking (its size is at
    most {!atomic_threshold}). *)

val words : t -> int
(** Object size in 32-bit words (rounded up). *)

val make : name:string -> size:int -> lock:Pmc_lock.Dlock.t -> t
(** Create a handle with a fresh domain-local id; placement fields start
    unset (back-ends fill them at allocation). *)

val reset_ids : unit -> unit
(** Restart handle-id allocation at 0 in the calling domain.  Ids are
    domain-local; resetting at the start of every independent simulator
    run ({!Pmc_apps.Runner.run} does) makes each run's ids — and hence
    its trace — a pure function of the run, independent of what ran
    before it or concurrently with it. *)

val dsm_track : t -> cores:int -> unit
(** Adopt the object for DSM version tracking: every replica starts at
    version 0 (replicas are made equal before the simulation begins). *)

val clear_dirty : t -> unit
(** Forget the dirty range (after the owning back-end published it). *)

val mark_dirty : t -> core:int -> lo:int -> hi:int -> unit
(** Record that [core] modified bytes [[lo, hi)] of its replica.
    Concurrent dirtying by two cores — a data race under PMC — degrades
    tracking to a conservative whole-object range. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: id, name, size and placement. *)
