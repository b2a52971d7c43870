(* Set-associative write-back, write-allocate data cache with true line
   storage.

   The cache holds its own copy of line data, so a dirty or stale line is
   really stale: another core reading the backing SDRAM does *not* see this
   core's cached writes until software writes the line back.  This is the
   non-coherence the paper's software cache coherency protocol must manage.

   Like the MicroBlaze cache described in Section V-B, the only maintenance
   operations are invalidate (discard, even if dirty) and write-back +
   invalidate; there is no way to reconcile a dirty line while keeping it.

   Storage is flat: one [Mem.t] holds every line's data (line [i] at
   offset [i * line_bytes]) and tags/dirty/LRU sit in parallel arrays, so
   an access allocates nothing — the outcome of the most recent timed
   access is an int bitmask read back via [last]. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  tags : int array;              (* set * ways + way; -1 = invalid *)
  dirty_ : bool array;
  lru : int array;
  data : Mem.t;                  (* all lines, flat *)
  mutable tick : int;
  mutable last : int;            (* outcome bits of the last timed access *)
  (* Backing store callbacks: read/write a whole aligned line between the
     backing store and [line_bytes] bytes of a [Mem.t] at a position. *)
  backing_read : int -> Mem.t -> int -> unit;
  backing_write : int -> Mem.t -> int -> unit;
}

type outcome = int

let o_hit = 1
let o_refilled = 2
let o_wrote_back = 4

let[@inline] hit oc = oc land o_hit <> 0
let[@inline] refilled oc = oc land o_refilled <> 0
let[@inline] wrote_back oc = oc land o_wrote_back <> 0
let[@inline] last t = t.last

let create ~sets ~ways ~line_bytes ~data ~backing_read ~backing_write =
  if sets <= 0 || ways <= 0 || Mem.length data < sets * ways * line_bytes
  then invalid_arg "Cache.create";
  {
    sets;
    ways;
    line_bytes;
    tags = Array.make (sets * ways) (-1);
    dirty_ = Array.make (sets * ways) false;
    lru = Array.make (sets * ways) 0;
    data;
    tick = 0;
    last = 0;
    backing_read;
    backing_write;
  }

let line_addr t addr = addr - (addr mod t.line_bytes)
let[@inline] set_of t addr = addr / t.line_bytes mod t.sets
let[@inline] tag_of t addr = addr / t.line_bytes / t.sets

let[@inline] touch t i =
  t.tick <- t.tick + 1;
  t.lru.(i) <- t.tick

(* Index of the resident line holding [addr], or -1. *)
let find t addr =
  let base = set_of t addr * t.ways in
  let tag = tag_of t addr in
  let rec go w =
    if w >= t.ways then -1
    else if t.tags.(base + w) = tag then base + w
    else go (w + 1)
  in
  go 0

let victim t addr =
  let base = set_of t addr * t.ways in
  (* prefer an invalid way, otherwise least recently used (ties keep the
     lowest way, matching the reference layout) *)
  let v = ref (-1) in
  let w = ref 0 in
  while !v = -1 && !w < t.ways do
    if t.tags.(base + !w) = -1 then v := base + !w;
    incr w
  done;
  if !v = -1 then begin
    v := base;
    for w = 1 to t.ways - 1 do
      if t.lru.(base + w) < t.lru.(!v) then v := base + w
    done
  end;
  !v

(* Ensure the line containing [addr] is resident; returns the line index
   and records the outcome in [last] for cycle accounting. *)
let ensure t addr =
  let i = find t addr in
  if i >= 0 then begin
    touch t i;
    t.last <- o_hit;
    i
  end
  else begin
    let i = victim t addr in
    let set = i / t.ways in
    let oc =
      if t.tags.(i) <> -1 && t.dirty_.(i) then begin
        let old_addr = ((t.tags.(i) * t.sets) + set) * t.line_bytes in
        t.backing_write old_addr t.data (i * t.line_bytes);
        o_refilled lor o_wrote_back
      end
      else o_refilled
    in
    t.backing_read (line_addr t addr) t.data (i * t.line_bytes);
    t.tags.(i) <- tag_of t addr;
    t.dirty_.(i) <- false;
    touch t i;
    t.last <- oc;
    i
  end

let load_u32_int t addr : int =
  let i = ensure t addr in
  Mem.get_u32_int t.data ((i * t.line_bytes) + (addr mod t.line_bytes))

let store_u32_int t addr x =
  let i = ensure t addr in
  Mem.set_u32_int t.data ((i * t.line_bytes) + (addr mod t.line_bytes)) x;
  t.dirty_.(i) <- true

let load_u32 t addr : int32 = Int32.of_int (load_u32_int t addr)
let store_u32 t addr (v : int32) = store_u32_int t addr (Int32.to_int v)

let load_u8 t addr : int =
  let i = ensure t addr in
  Mem.get_u8 t.data ((i * t.line_bytes) + (addr mod t.line_bytes))

let store_u8 t addr v =
  let i = ensure t addr in
  Mem.set_u8 t.data ((i * t.line_bytes) + (addr mod t.line_bytes)) v;
  t.dirty_.(i) <- true

type maint = { lines_touched : int; lines_written_back : int }

(* Iterate over the resident lines overlapping [addr, addr+len). *)
let iter_range t ~addr ~len f =
  let first = line_addr t addr in
  let last = line_addr t (addr + len - 1) in
  let a = ref first in
  while !a <= last do
    let i = find t !a in
    if i >= 0 then f !a i;
    a := !a + t.line_bytes
  done

(* Write-back + invalidate (the MicroBlaze "flush"): dirty lines go to the
   backing store, then all lines in range are discarded. *)
let wb_inval_range t ~addr ~len : maint =
  let touched = ref 0 and wrote = ref 0 in
  iter_range t ~addr ~len (fun line_a i ->
      incr touched;
      if t.dirty_.(i) then begin
        t.backing_write line_a t.data (i * t.line_bytes);
        incr wrote
      end;
      t.tags.(i) <- -1;
      t.dirty_.(i) <- false);
  { lines_touched = !touched; lines_written_back = !wrote }

(* Invalidate without write-back: cached modifications are lost. *)
let inval_range t ~addr ~len : maint =
  let touched = ref 0 in
  iter_range t ~addr ~len (fun _ i ->
      incr touched;
      t.tags.(i) <- -1;
      t.dirty_.(i) <- false);
  { lines_touched = !touched; lines_written_back = 0 }

let flush_all t : maint =
  let touched = ref 0 and wrote = ref 0 in
  for i = 0 to (t.sets * t.ways) - 1 do
    if t.tags.(i) <> -1 then begin
      incr touched;
      if t.dirty_.(i) then begin
        let a = ((t.tags.(i) * t.sets) + (i / t.ways)) * t.line_bytes in
        t.backing_write a t.data (i * t.line_bytes);
        incr wrote
      end;
      t.tags.(i) <- -1;
      t.dirty_.(i) <- false
    end
  done;
  { lines_touched = !touched; lines_written_back = !wrote }

let resident t addr = find t addr >= 0

let dirty t addr =
  let i = find t addr in
  i >= 0 && t.dirty_.(i)
