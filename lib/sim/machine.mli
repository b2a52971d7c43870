(** The simulated many-core SoC of Fig. 7: tiles with in-order cores,
    private write-back D-caches and I-caches in front of a shared SDRAM,
    per-tile local memories, and a write-only NoC.

    Address space (flat integers):
    cached SDRAM at the bottom, uncached SDRAM above it, and the tiles'
    local memories at [local_addr].  Each local memory is split into a
    DSM region (objects replicated at a common offset on every tile) and
    an SPM arena (stack-allocated scratch-pad space).

    All timed operations must be called from within a task spawned on
    this machine. *)

type t

val private_bytes : int
(** Size of each core's private arena (stack/heap stand-in). *)

val create : Config.t -> t

val config : t -> Config.t
val engine : t -> Engine.t

val fault : t -> Fault.t
(** The machine's fault plane — counters, configuration, and the draws
    the NoC and timed accesses consult (see {!Fault}). *)

val farmem : t -> Farmem.t
(** The far-memory tier behind SDRAM (the [farmem] back-end's
    persistence domain), created on first use — a machine that never
    asks for it allocates nothing. *)

val farmem_opt : t -> Farmem.t option
(** The far-memory tier if some back-end already instantiated it —
    what the crash checker snapshots a durable image from without
    accidentally creating a device on a machine that has none. *)

val link_dead : t -> src:int -> dst:int -> bool
(** Whether the (src, dst) NoC link has exhausted its retry budget and
    degraded to the SDRAM relay path (always [false] with the fault
    plane off) — back-ends consult this to pick degraded protocols. *)

val stats : t -> Stats.t

val probe : t -> Probe.t
(** The engine's instrumentation hook (see {!Probe}). *)

val spawn : ?start:int -> t -> core:int -> (unit -> unit) -> unit
val run : t -> unit
val core_id : t -> int
val now : t -> int

(** {1 Allocation} *)

val alloc_cached : t -> bytes:int -> int
(** Cache-line aligned; objects never share a line (Section V-B). *)

val alloc_uncached : t -> bytes:int -> int

val alloc_dsm : t -> bytes:int -> int
(** A common local-memory offset, valid on every tile. *)

val spm_alloc : t -> core:int -> bytes:int -> int
val spm_mark : t -> core:int -> int
val spm_release : t -> core:int -> int -> unit

(** {1 Address decoding} *)

type place =
  | Cached_sdram of int
  | Uncached_sdram of int
  | Local of { tile : int; off : int }

val local_addr : t -> tile:int -> off:int -> int
val decode : t -> int -> place

(** {1 Timed accesses} *)

exception Remote_read of { core : int; tile : int }
(** Reading another tile's local memory is impossible on the write-only
    interconnect. *)

val load_u32_int : t -> shared:bool -> int -> int
(** Unboxed variant of {!load_u32}: the unsigned 32-bit pattern as a
    plain [int] — the hot-path primitive (no [int32] box). *)

val store_u32_int : t -> shared:bool -> int -> int -> unit
(** Unboxed variant of {!store_u32}; low 32 bits significant. *)

val load_u32 : t -> shared:bool -> int -> int32
(** Timed load; [shared] selects the Fig. 8 stall category.  Cached SDRAM
    goes through the core's D-cache; uncached pays the contended SDRAM
    round trip; own local memory is fast. @raise Remote_read on remote
    local addresses. *)

val store_u32 : t -> shared:bool -> int -> int32 -> unit
(** Timed store.  A store to a remote local memory is a posted NoC write:
    the core pays only the injection cost. *)

val load_u8 : t -> shared:bool -> int -> int
(** Byte load — "in general, only bytes are indivisible" (Sec. IV-A). *)

val store_u8 : t -> shared:bool -> int -> int -> unit

val store_u32_remote_raw :
  t -> dst:int -> off:int -> latency:int -> int32 -> unit
(** Unordered remote write with explicit latency — the Fig. 1 machine. *)

val noc_push : t -> dst:int -> src_off:int -> dst_off:int -> len:int -> unit
(** Post a chunk of this core's local memory to another tile (the DSM
    replication primitive). *)

val noc_push_multi :
  t -> dsts:int list -> src_off:int -> dst_off:int -> len:int -> int
(** Replicate a chunk of this core's local memory into every tile of
    [dsts] (the coalesced DSM flush).  With {!Config.t.batched}
    the sender injects one multicast burst — one header flit plus the
    payload, one injection stall — and the NoC fans it out with delivery
    semantics identical to per-destination {!noc_push}es; with the switch
    off it degrades to exactly those unicast pushes.  Destinations equal
    to the calling core are ignored.  Returns the latest arrival time
    across destinations ([now] if there are none). *)

val noc_drain : t -> unit
(** Stall until all of this core's posted writes have landed — under
    faults this includes retransmissions and relay deliveries scheduled
    while waiting; the drain loops until {!Noc.outstanding} reaches
    zero. *)

(** {1 DMA staging (SPM back-end)} *)

val blit_sdram_to_local :
  t -> core:int -> sdram:int -> off:int -> len:int -> unit
(** Bulk-copy [len] bytes of SDRAM at [sdram] into tile [core]'s local
    memory at offset [off] — the SPM staging data path.  Untimed; the
    caller charges the burst (see {!Config.t.batched}). *)

val blit_local_to_sdram :
  t -> core:int -> off:int -> sdram:int -> len:int -> unit
(** Bulk-copy local memory back to SDRAM (the SPM write-back path). *)

val blit_farmem_to_local :
  t -> core:int -> far:int -> off:int -> len:int -> unit
(** Bulk-copy [len] bytes of durable far memory at [far] into tile
    [core]'s local memory at [off] — the farmem staging data path.
    Reads serve committed (durable) data only.  Untimed; the caller
    charges the burst. *)

val blit_local_to_farmem :
  t -> core:int -> off:int -> far:int -> len:int -> unit
(** Bulk-copy local memory into the far-memory device cache; the bytes
    become durable only at the next {!Farmem.barrier}. *)

val sdram_word_wait : t -> int
(** Arbitrate for the SDRAM port for one word access and return the
    queuing wait — the per-word staging model used when
    {!Config.t.batched} is off. *)

(** {1 Cache maintenance} *)

val wb_inval_range : t -> addr:int -> len:int -> unit
(** The MicroBlaze flush: write back + invalidate this core's lines in the
    range; cycles are charged as {!Stats.Flush_overhead}. *)

val inval_range : t -> addr:int -> len:int -> unit

(** {1 Instruction stream} *)

val set_code : t -> core:int -> footprint:int -> jump_prob:float -> unit
(** Configure the synthetic instruction stream of a core: code size and
    per-line taken-jump probability. *)

val instr : t -> int -> unit
(** Execute n instructions: one busy cycle each plus I-cache miss stalls,
    walking the configured footprint through a real I-cache model. *)

val busy : t -> int -> unit
(** Pure busy work without I-cache modelling. *)

(** {1 Private data} *)

val private_load : t -> int -> int32
(** Word [idx] of this core's private arena, through the D-cache —
    the "private data" traffic of Fig. 8. *)

val private_store : t -> int -> int32 -> unit

(** {1 Untimed debug access and atomics} *)

val peek_u32 : t -> int -> int32
(** Read backing storage directly, bypassing caches and timing (tests and
    initialization only). *)

val poke_u32 : t -> int -> int32 -> unit
val dcache : t -> core:int -> Cache.t

val uncached_tas : t -> int -> int32
(** Atomic test-and-set on an uncached SDRAM word; the RMW holds the
    memory port, making spinlocks expensive under contention. *)
