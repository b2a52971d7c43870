(** Per-core cycle accounting with the stall categories of Fig. 8 (busy,
    private-read, shared-read, write and I-cache stalls), plus lock-spin
    and flush-instruction time, which the paper reports separately. *)

type category =
  | Busy
  | Private_read_stall
  | Shared_read_stall
  | Write_stall
  | Icache_stall
  | Lock_stall
  | Flush_overhead

val categories : category list
val category_name : category -> string

(** Mutable per-core counters.  The event counters (cache hits, lock
    transfers, …) are written directly by the machine and lock layers. *)
type core = {
  mutable cycles : int array;
  mutable instructions : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable icache_misses : int;
  mutable lock_acquires : int;
  mutable lock_transfers : int;
  mutable noc_writes : int;
  mutable noc_flits : int;
  mutable flushes : int;
}

val core_create : unit -> core
(** Fresh zeroed counters for one core. *)

val add : core -> category -> int -> unit
(** Charge cycles to a category. *)

val get : core -> category -> int
(** Cycles charged to a category so far. *)

val total : core -> int
(** Sum over all categories. *)

type t = { cores : core array }

val create : int -> t
(** [create n] — counters for an [n]-core machine. *)

val core : t -> int -> core
(** The counters of one core. *)

(** Whole-machine totals, aggregated over cores by {!summarize}. *)
type summary = {
  wall_cycles : int;
  per_category : (category * int) list;
  total_cycles : int;
  instructions : int;
  dcache_hits : int;
  dcache_misses : int;
  icache_misses : int;
  lock_acquires : int;
  lock_transfers : int;
  noc_writes : int;
  noc_flits : int;
  flushes : int;
}

val summarize : t -> summary
(** Aggregate all cores; [wall_cycles] is the max of per-core totals. *)

val category_cycles : summary -> category -> int
(** Summed cycles of one category across all cores. *)

val fraction : summary -> category -> float
(** Fraction of summed core time spent in a category — the percentages
    plotted in Fig. 8. *)

val utilization : summary -> float
(** [fraction summary Busy]. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable breakdown, one category per line. *)
