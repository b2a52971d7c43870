(* Per-core cycle accounting, matching the measurement infrastructure of
   the paper ("support to measure micro-architectural events") and the
   stall categories of Fig. 8: busy execution, private-data read stalls,
   shared-data read stalls, write stalls and instruction-cache stalls.
   Lock-spin time and flush-instruction time are tracked separately; the
   paper reports flush overhead explicitly (0.66 % / 0.00 % / 0.01 %). *)

type category =
  | Busy               (* executing instructions *)
  | Private_read_stall
  | Shared_read_stall
  | Write_stall
  | Icache_stall
  | Lock_stall         (* spinning on / transferring a lock *)
  | Flush_overhead     (* executing cache flush / copy-back operations *)

let categories =
  [ Busy; Private_read_stall; Shared_read_stall; Write_stall; Icache_stall;
    Lock_stall; Flush_overhead ]

let category_name = function
  | Busy -> "busy"
  | Private_read_stall -> "private read stall"
  | Shared_read_stall -> "shared read stall"
  | Write_stall -> "write stall"
  | Icache_stall -> "I-cache stall"
  | Lock_stall -> "lock stall"
  | Flush_overhead -> "flush overhead"

type core = {
  mutable cycles : int array;     (* per category *)
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

let core_create () =
  {
    cycles = Array.make (List.length categories) 0;
    instructions = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    icache_misses = 0;
    lock_acquires = 0;
    lock_transfers = 0;
    noc_writes = 0;
    noc_flits = 0;
    flushes = 0;
  }

(* Direct index per constructor — [add] sits on the engine's per-consume
   hot path, where a list walk with polymorphic equality is measurable. *)
let[@inline] index_of = function
  | Busy -> 0
  | Private_read_stall -> 1
  | Shared_read_stall -> 2
  | Write_stall -> 3
  | Icache_stall -> 4
  | Lock_stall -> 5
  | Flush_overhead -> 6

let[@inline] add (c : core) cat n =
  let i = index_of cat in
  Array.unsafe_set c.cycles i (Array.unsafe_get c.cycles i + n)

let get (c : core) cat = c.cycles.(index_of cat)
let total (c : core) = Array.fold_left ( + ) 0 c.cycles

type t = { cores : core array }

let create n = { cores = Array.init n (fun _ -> core_create ()) }
let core t i = t.cores.(i)

type summary = {
  wall_cycles : int;             (* longest per-core total *)
  per_category : (category * int) list;  (* summed over cores *)
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

let summarize (t : t) : summary =
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 t.cores in
  let per_category =
    List.map (fun cat -> (cat, sum (fun c -> get c cat))) categories
  in
  {
    wall_cycles = Array.fold_left (fun acc c -> max acc (total c)) 0 t.cores;
    per_category;
    total_cycles = sum total;
    instructions = sum (fun c -> c.instructions);
    dcache_hits = sum (fun c -> c.dcache_hits);
    dcache_misses = sum (fun c -> c.dcache_misses);
    icache_misses = sum (fun c -> c.icache_misses);
    lock_acquires = sum (fun c -> c.lock_acquires);
    lock_transfers = sum (fun c -> c.lock_transfers);
    noc_writes = sum (fun c -> c.noc_writes);
    noc_flits = sum (fun c -> c.noc_flits);
    flushes = sum (fun c -> c.flushes);
  }

let category_cycles (s : summary) cat = List.assoc cat s.per_category

(* Fraction of total core time spent in [cat], as the percentages of
   Fig. 8. *)
let fraction (s : summary) cat =
  if s.total_cycles = 0 then 0.0
  else float_of_int (category_cycles s cat) /. float_of_int s.total_cycles

let utilization s = fraction s Busy

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "wall %d cycles, %d instr, utilization %.1f%%@." s.wall_cycles
    s.instructions
    (100.0 *. utilization s);
  List.iter
    (fun (cat, cyc) ->
      Fmt.pf ppf "  %-20s %12d (%5.1f%%)@." (category_name cat) cyc
        (100.0 *. fraction s cat))
    s.per_category
