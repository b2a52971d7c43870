(** The unified trace event of the [pmc_trace] subsystem.

    One virtually-timestamped record per runtime action, merging the
    annotation-level events of {!Pmc.Api} with the micro-architectural
    events of {!Pmc_sim.Probe} into a single per-run timeline.  A probe
    event is carried as the probe declares it; an access carries its
    width (1 or 4 bytes) and byte offset, as {!Pmc.Api.event} does.
    Events are plain data (no live handles), so captured traces are
    self-contained artifacts: exportable ({!Export}), replayable through
    the formal model ({!Replay}) and checkable for races ({!Racecheck}). *)

type obj = { id : int; name : string; words : int; bytes : int }
(** Descriptor of a shared object, detached from its live handle. *)

type annot = Entry_x | Exit_x | Entry_ro | Exit_ro | Fence | Flush

type kind =
  | Annot of { ann : annot; obj : obj option }
      (** An annotation; [obj = None] for fences. *)
  | Read of { obj : obj; width : int; byte : int; value : int }
      (** A [width]-byte read at byte offset [byte]; a word's [value] is
          sign-extended. *)
  | Write of { obj : obj; width : int; byte : int; value : int }
  | Init of { obj : obj; word : int; value : int32 }
      (** Untimed initialization write ({!Pmc.Api.poke}), before the run. *)
  | Probe of Pmc_sim.Probe.event
      (** Back-end mechanics: NoC posts, cache maintenance, lock
          handovers, task lifetimes, and (chaos runs only) injected
          faults and the resilient protocol's reactions to them. *)

type t = {
  seq : int;   (** global emission index — issue order, survives ring drops *)
  time : int;  (** virtual time (cycles) at emission *)
  core : int;
  kind : kind;
}

val obj_of_shared : Pmc.Shared.t -> obj

val annot_name : annot -> string

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
