(* Shared SDRAM: flat byte store plus a simple contention model.

   The memory port can start a new access only when the previous one has
   released it; an access arriving while the port is busy queues.  The
   returned latency therefore grows when many cores hammer the SDRAM — the
   effect that dominates the 'no CC' bars of Fig. 8.

   The store is a flat [Mem.t].  The byte/word accessor keeps an explicit
   bounds check (they can be fed arbitrary decoded addresses, and [Mem]'s
   accessors are unsafe); the line and blit paths are driven by the cache
   and DMA engines, whose addresses are validated by construction. *)

type t = {
  mem : Mem.t;
  size : int;
  word_occupancy : int;  (* port busy time per word access *)
  line_occupancy : int;  (* port busy time per line transfer *)
  mutable busy_until : int;
  mutable accesses : int;
  mutable queued_cycles : int;
}

let create ~size ~word_occupancy ~line_occupancy =
  {
    mem = Mem.create size;
    size;
    word_occupancy;
    line_occupancy;
    busy_until = 0;
    accesses = 0;
    queued_cycles = 0;
  }

let size t = t.size

let[@inline] check t addr len op =
  if addr < 0 || addr + len > t.size then invalid_arg op

(* Queuing delay for an access starting at [now] that occupies the port
   for [occupancy] cycles.  Returns the wait before service begins. *)
let contend t ~now ~occupancy =
  let wait = max 0 (t.busy_until - now) in
  t.busy_until <- now + wait + occupancy;
  t.accesses <- t.accesses + 1;
  t.queued_cycles <- t.queued_cycles + wait;
  wait

let contend_word t ~now = contend t ~now ~occupancy:t.word_occupancy
let contend_line t ~now = contend t ~now ~occupancy:t.line_occupancy

(* A burst of [lines] back-to-back line transfers: the requester queues
   once and then holds the port for the whole burst, instead of
   re-arbitrating (and potentially queuing again) per line. *)
let contend_burst t ~now ~lines =
  contend t ~now ~occupancy:(lines * t.line_occupancy)

(* Data-path operations (timing handled by the caller); [width] is 1 or
   4 bytes. *)
let read t ~width addr =
  check t addr width "Sdram.read";
  Mem.get t.mem ~width addr

let write t ~width addr x =
  check t addr width "Sdram.write";
  Mem.set t.mem ~width addr x

let read_u32 t addr = Int32.of_int (read t ~width:4 addr)
let write_u32 t addr (v : int32) = write t ~width:4 addr (Int32.to_int v)

let blit_to t ~addr (dst : Mem.t) ~pos ~len = Mem.blit t.mem addr dst pos len

let blit_from t ~addr (src : Mem.t) ~pos ~len =
  Mem.blit src pos t.mem addr len

let read_line t addr (dst : Mem.t) ~pos ~len = Mem.blit t.mem addr dst pos len

let write_line t addr (src : Mem.t) ~pos ~len =
  Mem.blit src pos t.mem addr len
