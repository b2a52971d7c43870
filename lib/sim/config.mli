(** Timing and geometry parameters of the simulated many-core SoC
    (Fig. 7 of the paper: tiles with an in-order MicroBlaze-like core and
    a dual-port local memory, a write-only NoC, and a shared SDRAM behind
    per-core non-coherent caches). *)

type t = {
  cores : int;
  topology : Topology.t;
      (** Fabric shape ({!Topology.Star} by default — the seed machine).
          Non-star fabrics route messages over physical links and model
          per-link contention; see {!Topology} and [docs/TOPOLOGY.md]. *)
  dcache_sets : int;
  dcache_ways : int;
  line_bytes : int;
  dcache_hit_cycles : int;
  icache_sets : int;
  icache_ways : int;
  icache_miss_cycles : int;
  sdram_word_cycles : int;      (** uncached single-word access latency *)
  sdram_line_cycles : int;      (** cache-line refill / write-back latency *)
  sdram_word_occupancy : int;   (** port busy time per word (contention) *)
  sdram_line_occupancy : int;   (** port busy time per line (contention) *)
  local_mem_cycles : int;       (** local memory access (single-cycle LMB) *)
  local_mem_bytes : int;
  sdram_bytes : int;
      (** Shared SDRAM capacity.  A floor, not an exact size:
          {!Machine.create} grows it to 64 KiB per tile when the
          configured fabric needs more (large fabrics would otherwise
          exhaust the cached region on per-core private arenas). *)
  noc_base_cycles : int;        (** remote-write setup latency *)
  noc_hop_cycles : int;         (** additional latency per ring hop *)
  noc_word_cycles : int;        (** per-word injection/burst cost *)
  lock_local_poll_cycles : int; (** polling the local grant flag *)
  lock_transfer_cycles : int;   (** lock handover between tiles *)
  batched : bool;
      (** The hot-path batching switch (default on).  On: a DSM flush
          injects one multicast burst (one header flit plus the payload,
          once) instead of a unicast burst per destination tile; DSM
          replicas are version-tracked, so an acquire skips the pull
          when the local replica already holds the newest version and an
          exclusive scope that never wrote does not claim ownership; a
          range cache-maintenance operation (and an SPM DMA copy)
          arbitrates for the SDRAM port once per burst instead of once
          per line or word; and polls of a word in the polling core's
          own local memory (DSM replicas) back off at most 64 cycles
          instead of {!Pmc.Api.poll_until}'s 512 — such polls disturb no
          other tile (Section VI-B).  Off ([{ cfg with batched = false }])
          is the pre-batching cost model, the reference side of the
          regression benches and of the batched/unbatched equivalence
          tests. *)
  fault_seed : int;
      (** Seed of the fault plane's deterministic hash stream ({!Fault}):
          same seed, same fault schedule, bit for bit. *)
  noc_drop_prob : float;
      (** Probability that a posted-write delivery attempt is dropped on
          its link.  All fault probabilities default to zero — with every
          probability at zero the fault plane is off and the simulator is
          bit-identical to the fault-free machine. *)
  noc_corrupt_prob : float;
      (** Probability of a payload corruption; the per-packet checksum
          detects it and the packet is retransmitted, so corruption never
          lands silently. *)
  noc_delay_prob : float;       (** transient extra link delay *)
  noc_delay_max : int;          (** max extra delay cycles per hit *)
  noc_retry_limit : int;
      (** Retransmissions of one packet before its link is declared dead
          and deliveries degrade to the SDRAM relay path. *)
  noc_retry_backoff : int;
      (** Base retransmit backoff in cycles; doubles per attempt, capped
          at 64× the base. *)
  noc_ack_cycles : int;         (** sender-side loss-detection turnaround *)
  sdram_error_prob : float;     (** transient read error per SDRAM access *)
  sdram_retry_limit : int;
      (** Consecutive SDRAM read errors tolerated before the access
          raises a typed {!Pmc_error.Error}. *)
  tile_stall_prob : float;      (** transient tile stall per timed access *)
  tile_stall_cycles : int;      (** max cycles of one stall *)
  farmem_bytes : int;
      (** Capacity of the far-memory tier behind SDRAM (the [farmem]
          back-end's persistence domain), redo-log region included. *)
  farmem_word_cycles : int;     (** far-memory single-word access latency *)
  farmem_word_occupancy : int;  (** far-memory port busy time per word *)
  farmem_burst_word_cycles : int; (** per-word streaming cost of a burst *)
  farmem_barrier_cycles : int;
      (** Cost of a far-memory flush barrier.  Writes reach a volatile
          device cache first and become durable only when a barrier
          drains it — the persistence domain of {!Farmem}. *)
  farmem_log : bool;
      (** Whether the [farmem] back-end commits [exit_x] through its
          redo log (failure-atomic).  [false] is a debug knob: scope
          publication degrades to word-by-word in-place writes with
          interleaved barriers, which a power cut can tear — the
          negative control the crash checker must catch. *)
  power_cut_prob : float;
      (** Probability that a run suffers a whole-machine power failure at
          a deterministic, seed-derived cycle.  Zero (the default) means
          no cut is ever scheduled and the machine is bit-identical to
          the fault-free one.  Unlike the per-access classes above, a
          non-zero value does {e not} arm the access-level fault plane
          ({!faults_enabled} stays [false]), so the pre-cut timeline of
          a crash run is bit-identical to the fault-free run. *)
  power_cut_window : int;
      (** The cut cycle is drawn uniformly from [\[1, window\]] by the
          fault hash stream (tag 5, keyed by [fault_seed]). *)
  max_cycles : int;             (** livelock watchdog *)
  seed : int;                   (** PRNG seed for workload randomness *)
}

val default : t
(** 32 tiles, 16 KiB 4-way D-caches with 32-byte lines, 16 KiB I-caches,
    24-cycle SDRAM words, single-cycle local memories. *)

val small : t
(** A 4-tile variant for tests. *)

val no_faults : t -> t
(** The same machine with every fault probability at zero.  Because the
    fault plane takes no code path when disarmed,
    [no_faults (chaos ~seed t)] runs bit-identically to [t] — the
    zero-cost-when-off invariant the chaos tests and the [bench-smoke]
    CI gate assert. *)

val faults_enabled : t -> bool
(** Whether any {e per-access} fault probability is non-zero.  The power
    cut is excluded on purpose: it is one scheduled event, not a
    per-access draw, and arming it alone keeps every latency on the
    fault-free path (see {!power_cut_armed}). *)

val power_cut_armed : t -> bool
(** Whether a power cut may be scheduled ([power_cut_prob > 0]). *)

val chaos : ?intensity:float -> seed:int -> t -> t
(** The soak harness's standard fault schedule: every fault class armed,
    probabilities scaled by [intensity] (default 1.0), schedule selected
    by [seed]. *)

val crash : ?window:int -> seed:int -> t -> t
(** The crash harness's schedule: only the power cut armed
    ([power_cut_prob = 1.0]), cut cycle drawn from [\[1, window\]]
    (default: the existing [power_cut_window]) by [seed].  Every
    per-access probability is left untouched, so on a fault-free base
    config the run is bit-identical to the fault-free machine up to the
    cut. *)

val hops : t -> src:int -> dst:int -> int
(** Hop distance between two tiles on the configured fabric: ring
    distance on {!Topology.Star}, Manhattan/wrapped-Manhattan on grids,
    hub hops on hierarchical clusters. *)

val noc_latency : t -> src:int -> dst:int -> words:int -> int
val words_per_line : t -> int

val relay_latency : t -> words:int -> int
(** Latency of the degraded SDRAM relay path used once a link's
    retransmit budget is exhausted: the payload is staged through shared
    SDRAM (a write burst and a read burst) instead of crossing the dead
    link. *)
