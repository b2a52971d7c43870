(** Deterministic fault-injection plane (the chaos plane).

    Every decision is a pure hash of [(Config.fault_seed, site key)]:
    the same seed produces the same fault schedule, independent of call
    order, so chaos runs are exactly reproducible.  The plane never
    touches the workload PRNG.

    When every fault probability in the config is zero, {!enabled} is
    [false] and every hook in the NoC and machine reduces to one boolean
    test — the fault-free simulator is bit-identical to a build without
    the plane (the zero-cost-when-off invariant). *)

(** {1 Counters}

    Each fault counter is one slot, declared once in [fault.ml] by its
    wire name (with its meaning beside it); a snapshot holds one value
    per counter, in declared order. *)

val names : string list
(** The counters' wire names, in declared order. *)

type slot

val slot : string -> slot
(** The counter declared under this name.  Bind it once, at module
    initialization, so that a misspelt name fails at program start.
    @raise Invalid_argument for an undeclared name. *)

type counts = int array
(** A snapshot: one value per counter, in the order of {!names}. *)

val zero : unit -> counts
val get : counts -> slot -> int
val sum : counts list -> counts
(** A fresh snapshot, slot by slot the sum of the given ones. *)

(** {1 The plane} *)

type t

val create : Config.t -> t
val enabled : t -> bool

val counts : t -> counts
(** A snapshot of the counters so far. *)

val bump : t -> slot -> unit
(** Count one more event on a live counter. *)

val config : t -> Config.t

val checksum : Bytes.t -> int
(** FNV-1a payload checksum — the end-to-end integrity check carried by
    every resilient NoC packet. *)

type outcome = Deliver | Drop | Corrupt | Delay of int

val noc_outcome :
  t -> src:int -> dst:int -> seq:int -> attempt:int -> outcome
(** Outcome of one delivery attempt of packet [seq] on the logical
    (src, dst) link of the {!Topology.Star} fabric.  Updates the
    NoC counters. *)

val route_outcome :
  t -> src:int -> dst:int -> seq:int -> attempt:int -> outcome
(** Topology-aware outcome of one delivery attempt: on {!Topology.Star}
    identical to {!noc_outcome}; on routed fabrics one independent draw
    per directed physical link of the route (the by-hop chaos
    addressing) — a drop on any link drops the packet, else a corruption
    on any link corrupts it, else per-link delays accumulate.  The
    packet-level counters tick once per attempt on every fabric. *)

val sdram_error : t -> core:int -> bool
(** Whether this SDRAM access suffers a transient read error (one fresh
    draw per call; the caller retries). *)

val tile_stall : t -> core:int -> int
(** Cycles of transient stall injected into the calling tile at this
    timed access; [0] for none. *)

val power_cut_cycle : fault_seed:int -> window:int -> int
(** The seed-derived power-cut cycle in [\[1, window\]] (hash tag 5).
    Pure in its arguments — job planners can predict the cycle a machine
    built from the same seed and window will cut at, which is what makes
    caching crash verdicts by job key sound. *)

val power_cut_at : t -> int option
(** Whether (and at which cycle) this machine's power fails.  Consulted
    once at machine construction.  [None] without touching the hash
    stream when [Config.power_cut_prob] is zero, so the disarmed machine
    schedules nothing and stays bit-identical to the fault-free one. *)

val record_power_cut : t -> unit
(** Count a cut that actually fired (the scheduled cycle was reached
    with tasks still live). *)
