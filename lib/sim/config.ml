(* Timing and geometry parameters of the simulated many-core SoC (Fig. 7 of
   the paper: tiles with a MicroBlaze-like in-order core and a dual-port
   local memory, a write-only NoC between tiles, and a shared SDRAM behind
   per-core non-coherent caches).

   The defaults echo the paper's FPGA platform class: single-cycle cache
   hits, tens of cycles to SDRAM, a couple of cycles to the local memory
   and NoC latencies that grow with hop distance. *)

type t = {
  cores : int;
  topology : Topology.t;        (* fabric shape; Star = the seed machine *)
  (* data cache *)
  dcache_sets : int;
  dcache_ways : int;
  line_bytes : int;
  dcache_hit_cycles : int;
  (* instruction cache *)
  icache_sets : int;
  icache_ways : int;
  icache_miss_cycles : int;
  (* memories *)
  sdram_word_cycles : int;      (* uncached single-word access *)
  sdram_line_cycles : int;      (* cache line refill / write-back *)
  sdram_word_occupancy : int;   (* port busy time per word (contention) *)
  sdram_line_occupancy : int;   (* port busy time per line (contention) *)
  local_mem_cycles : int;       (* dual-port local memory access (single-cycle LMB) *)
  local_mem_bytes : int;        (* per-tile local memory size *)
  sdram_bytes : int;
  (* network-on-chip *)
  noc_base_cycles : int;        (* remote write setup latency *)
  noc_hop_cycles : int;         (* additional latency per hop *)
  noc_word_cycles : int;        (* per-word cost of a burst *)
  (* locking *)
  lock_local_poll_cycles : int; (* polling the local grant flag *)
  lock_transfer_cycles : int;   (* handover between tiles over the NoC *)
  (* hot-path batching, one switch: off reproduces the unbatched cost
     model (the regression benches compare both) — per-tile unicast DSM
     flushes, no DSM replica version tracking, one SDRAM arbitration per
     maintained line, and the shared-memory 512-cycle poll backoff on
     local DSM replicas *)
  batched : bool;
  (* fault injection: the chaos plane (see Fault).  All probabilities are
     zero by default — with every probability at zero the plane is off and
     the simulator is bit-identical to the fault-free machine. *)
  fault_seed : int;             (* seed of the fault plane's hash stream *)
  noc_drop_prob : float;        (* per delivery attempt, per link *)
  noc_corrupt_prob : float;     (* checksum-detected payload corruption *)
  noc_delay_prob : float;       (* transient extra link delay *)
  noc_delay_max : int;          (* max extra delay cycles per hit *)
  noc_retry_limit : int;        (* retransmissions before a link is dead *)
  noc_retry_backoff : int;      (* base backoff, doubles per attempt *)
  noc_ack_cycles : int;         (* sender-side loss detection turnaround *)
  sdram_error_prob : float;     (* transient read error per SDRAM access *)
  sdram_retry_limit : int;      (* consecutive errors before typed failure *)
  tile_stall_prob : float;      (* transient stall per timed access *)
  tile_stall_cycles : int;      (* max cycles of one stall *)
  (* far-memory tier (the farmem back-end's persistence domain) *)
  farmem_bytes : int;           (* capacity, log region included *)
  farmem_word_cycles : int;     (* single-word access latency *)
  farmem_word_occupancy : int;  (* port busy time per word (contention) *)
  farmem_burst_word_cycles : int; (* per-word streaming cost of a burst *)
  farmem_barrier_cycles : int;  (* flush barrier (drain the device cache) *)
  farmem_log : bool;            (* failure-atomic exit_x via the redo log;
                                   off = the deliberately tearable debug
                                   mode the crash checker must catch *)
  (* power failure: a whole-machine cut at a seed-derived cycle.  Not an
     access-level fault class — armed separately from [faults_enabled] so
     a crash-only config keeps the fault-free timing path up to the cut. *)
  power_cut_prob : float;       (* probability a run is cut at all *)
  power_cut_window : int;       (* the cut cycle is drawn from [1, window] *)
  (* simulation *)
  max_cycles : int;             (* watchdog against livelock *)
  seed : int;                   (* PRNG seed for workload randomness *)
}

let default =
  {
    cores = 32;
    topology = Topology.Star;
    dcache_sets = 128;
    dcache_ways = 4;
    line_bytes = 32;
    dcache_hit_cycles = 1;
    icache_sets = 512;
    icache_ways = 1;
    icache_miss_cycles = 20;
    sdram_word_cycles = 24;
    sdram_line_cycles = 30;
    sdram_word_occupancy = 1;
    sdram_line_occupancy = 2;
    local_mem_cycles = 1;
    local_mem_bytes = 64 * 1024;
    sdram_bytes = 8 * 1024 * 1024;
    noc_base_cycles = 10;
    noc_hop_cycles = 1;
    noc_word_cycles = 1;
    lock_local_poll_cycles = 4;
    lock_transfer_cycles = 30;
    batched = true;
    fault_seed = 1;
    noc_drop_prob = 0.0;
    noc_corrupt_prob = 0.0;
    noc_delay_prob = 0.0;
    noc_delay_max = 64;
    noc_retry_limit = 6;
    noc_retry_backoff = 8;
    noc_ack_cycles = 4;
    sdram_error_prob = 0.0;
    sdram_retry_limit = 8;
    tile_stall_prob = 0.0;
    tile_stall_cycles = 400;
    farmem_bytes = 1024 * 1024;
    farmem_word_cycles = 60;
    farmem_word_occupancy = 4;
    farmem_burst_word_cycles = 4;
    farmem_barrier_cycles = 120;
    farmem_log = true;
    power_cut_prob = 0.0;
    power_cut_window = 1_000_000;
    max_cycles = 2_000_000_000;
    seed = 42;
  }

let small = { default with cores = 4; sdram_bytes = 1024 * 1024 }

(* Disarm the fault plane: every probability back to zero.  With the
   plane off the simulator takes the exact fault-free code paths, so
   [no_faults (chaos ~seed t)] runs bit-identically to [t]. *)
let no_faults t =
  {
    t with
    noc_drop_prob = 0.0;
    noc_corrupt_prob = 0.0;
    noc_delay_prob = 0.0;
    sdram_error_prob = 0.0;
    tile_stall_prob = 0.0;
    power_cut_prob = 0.0;
  }

(* The per-access fault classes.  The power cut is deliberately excluded:
   it is a single scheduled event, not a per-access draw, and arming it
   alone must leave the access-level plane (and so every latency) on the
   fault-free path — the pre-cut timeline of a crash run is bit-identical
   to the fault-free run. *)
let faults_enabled t =
  t.noc_drop_prob > 0.0 || t.noc_corrupt_prob > 0.0
  || t.noc_delay_prob > 0.0 || t.sdram_error_prob > 0.0
  || t.tile_stall_prob > 0.0

let power_cut_armed t = t.power_cut_prob > 0.0

(* The standard chaos schedule of the soak harness: every fault class
   armed, scaled by [intensity] (1.0 = the default mix).  [seed] selects
   the deterministic fault schedule — same seed, same faults. *)
let chaos ?(intensity = 1.0) ~seed t =
  let p base = min 0.9 (base *. intensity) in
  {
    t with
    fault_seed = seed;
    noc_drop_prob = p 0.03;
    noc_corrupt_prob = p 0.015;
    noc_delay_prob = p 0.05;
    sdram_error_prob = p 0.01;
    tile_stall_prob = p 0.002;
  }

(* The crash harness's schedule: only the power cut armed, so the run is
   bit-identical to the fault-free machine up to the cut cycle.  [window]
   bounds the seed-derived cut cycle; pick the fault-free wall time of
   the same workload so the cut lands mid-run. *)
let crash ?window ~seed t =
  {
    t with
    fault_seed = seed;
    power_cut_prob = 1.0;
    power_cut_window = Option.value ~default:t.power_cut_window window;
  }

(* Number of NoC hops between two tiles.  On the default Star fabric
   this is the bidirectional-ring distance of the paper's platform [16];
   the other fabrics route per Topology (XY for grids, via hubs for
   hierarchical clusters). *)
let hops t ~src ~dst = Topology.hops t.topology ~cores:t.cores ~src ~dst

let noc_latency t ~src ~dst ~words =
  t.noc_base_cycles + (t.noc_hop_cycles * hops t ~src ~dst)
  + (t.noc_word_cycles * words)

let words_per_line t = t.line_bytes / 4

(* Latency of the degraded SDRAM relay path: when a link's retransmit
   budget is exhausted, replication data is staged through the shared
   SDRAM (write burst by the sender's adapter, read burst by the
   receiver's) instead of crossing the dead link — the SWCC-style
   fallback.  Mirrors the SPM DMA burst model: one SDRAM latency plus a
   per-word streaming cost, paid twice. *)
let relay_latency t ~words =
  2 * (t.sdram_word_cycles + (2 * words))
