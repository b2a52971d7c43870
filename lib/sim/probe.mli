(** Instrumentation hook of the simulator.

    The machine, NoC, engine and lock layers publish micro-architectural
    events (posted NoC writes, cache maintenance ranges, lock handovers,
    task lifetimes, injected faults) to at most one sink per engine.
    When no sink is set, emission costs one option check — instrumented
    paths stay cheap.

    These types are also the trace vocabulary for back-end mechanics: the
    [pmc_trace] library subscribes here and carries each event as it is
    ({!Pmc_trace.Event.kind}'s [Probe]) in one timeline with the
    annotation-level events of [Pmc.Api], so the owning core and the
    printed form of an event are declared here and nowhere else. *)

type lock_op = Acquire | Release | Acquire_ro | Release_ro
type maint_op = Wb_inval | Inval
type task_op = Spawn | Finish

(** Injected faults and the resilient protocol's reactions.  [attempt]
    counts transmissions of one packet (1 = the original), [seq] is the
    per-link packet sequence number. *)
type fault =
  | F_noc_drop of { src : int; dst : int; seq : int; attempt : int }
      (** Delivery attempt lost on the link. *)
  | F_noc_corrupt of { src : int; dst : int; seq : int; attempt : int }
      (** Payload corrupted in flight; caught by the packet checksum. *)
  | F_noc_delay of { src : int; dst : int; seq : int; cycles : int }
      (** Transient extra link delay on a successful delivery. *)
  | F_noc_retry of { src : int; dst : int; seq : int; attempt : int; at : int }
      (** Retransmission scheduled at time [at] after a loss. *)
  | F_link_dead of { src : int; dst : int }
      (** Retry budget exhausted; the link degrades to the SDRAM relay. *)
  | F_noc_degraded of { src : int; dst : int; seq : int }
      (** A packet delivered through the SDRAM relay path. *)
  | F_sdram_retry of { core : int; attempt : int }
      (** Transient SDRAM read error; the access is retried. *)
  | F_tile_stall of { core : int; cycles : int }
      (** Transient stall injected into a tile. *)
  | F_lock_timeout of { core : int; lock : int; waited : int }
      (** A bounded lock acquisition gave up after [waited] cycles. *)
  | F_power_cut of { cycle : int }
      (** Whole-machine power failure: every tile dies at [cycle] and
          every non-durable byte is dropped. *)

type event =
  | Noc_post of {
      src : int;
      dst : int;
      off : int;
      bytes : int;
      arrival : int;
    }  (** A posted write injected at [time], landing at [arrival]. *)
  | Cache_maint of {
      core : int;
      op : maint_op;
      addr : int;
      len : int;
      lines_touched : int;
      lines_written_back : int;
    }
  | Lock of { core : int; lock : int; op : lock_op; transferred : bool }
  | Task of { core : int; op : task_op }
  | Fault of fault  (** An injected fault or the protocol's reaction. *)

type sink = time:int -> event -> unit
(** Receives every event with its emission time. *)

type t

val create : unit -> t

val set : t -> sink option -> unit
(** Install or remove the sink (at most one per probe). *)

val active : t -> bool
(** Whether a sink is installed — a single flag load.  Emitting call
    sites check it {e before} constructing an event record, so untraced
    runs pay one branch, not one allocation, per would-be event. *)

val emit : t -> time:int -> event -> unit
(** Deliver an event to the sink, if any. *)

(** {1 Reading events} *)

val core : event -> int
(** The core whose timeline an event belongs to: the sender of a NoC
    post or of a NoC fault (the side that owns the retransmission
    protocol), the named core otherwise, and core 0 for the power cut,
    which kills every tile at once. *)

val lock_op_name : lock_op -> string
val maint_op_name : maint_op -> string
val task_op_name : task_op -> string

val fault_name : fault -> string
(** The fault's class, e.g. ["noc_drop"]. *)

val fault_detail : fault -> string
(** The fault's payload as text, e.g. ["0>1 seq=2 attempt=1"]. *)

val pp : Format.formatter -> event -> unit
(** One-line rendering, as [pmc_trace dump] prints it. *)
