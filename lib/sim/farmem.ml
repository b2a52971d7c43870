(* Far-memory tier behind SDRAM: a persistence domain with a volatile
   device cache in front of durable media.

   Writes land in [shadow] (the device cache) and become durable only
   when a flush [barrier] drains the dirty ranges into [media].  Reads of
   committed data are served from [media]: a reader can never observe a
   byte that would not survive a power cut, which is the "visible implies
   durable" discipline the crash checker's durable-prefix replay relies
   on.  A power cut simply abandons [shadow]; whatever [media] holds at
   that instant is the durable image recovery starts from.

   The bottom of the address space is reserved for the farmem back-end's
   redo log: one slot per committing core (commits of different objects
   interleave in simulated time, so they must not share log space) below
   an 8-byte superblock recording the slot geometry — the log is fully
   self-describing, so [recover] works on a restored image with no
   backend state at all.  The layout and [recover] live here because the
   device owns the media.

   Timing mirrors [Sdram]: one port, busy-until contention, occupancy per
   word; latency composition is the caller's job. *)

type t = {
  media : Mem.t;                 (* durable *)
  shadow : Mem.t;                (* volatile device cache *)
  size : int;
  word_occupancy : int;
  slots : int;
  slot_bytes : int;
  mutable busy_until : int;
  mutable accesses : int;
  mutable queued_cycles : int;
  mutable barriers : int;
  mutable bytes_flushed : int;
  mutable dirty : (int * int) list;   (* pending (addr, len) shadow ranges *)
  mutable allocs : (string * int * int) list;  (* (name, addr, bytes), newest first *)
  mutable brk : int;
}

(* ---------------- redo-log region layout ----------------

   superblock:  word 0 = slot count, word 1 = slot size in bytes
   slot i (at [8 + i * slot_bytes]):
     word 0: commit flag (1 = the records below are committed and must
             be (re)applied by recovery; 0 = empty or uncommitted)
     word 1: record count
     then per record: home address word, word count n, then n data words *)

let log_slot_bytes = 32 * 1024
let slot_addr _t i = 8 + (i * log_slot_bytes)
let align8 v = (v + 7) land lnot 7

let create ~data_bytes ~word_occupancy ~slots =
  let slot_bytes = log_slot_bytes in
  let alloc_base = align8 (8 + (slots * slot_bytes)) in
  let size = alloc_base + max 0 data_bytes in
  let t =
    {
      media = Mem.create size;
      shadow = Mem.create size;
      size;
      word_occupancy;
      slots;
      slot_bytes;
      busy_until = 0;
      accesses = 0;
      queued_cycles = 0;
      barriers = 0;
      bytes_flushed = 0;
      dirty = [];
      allocs = [];
      brk = alloc_base;
    }
  in
  (* the superblock is provisioned durably, like an initialization poke *)
  Mem.set_u32_int t.media 0 slots;
  Mem.set_u32_int t.media 4 slot_bytes;
  Mem.set_u32_int t.shadow 0 slots;
  Mem.set_u32_int t.shadow 4 slot_bytes;
  t

let size t = t.size

let[@inline] check t addr len op =
  if addr < 0 || len < 0 || addr + len > t.size then invalid_arg op

(* ---------------- allocation directory ---------------- *)

(* 8-byte aligned carve-out above the log region.  The directory is kept
   host-side (it is metadata, not simulated state) so the crash checker
   can enumerate every shared object of the durable image. *)
let alloc t ~name ~bytes =
  let addr = (t.brk + 7) land lnot 7 in
  if addr + bytes > t.size then
    failwith (Printf.sprintf "Farmem.alloc: out of far memory for %S" name);
  t.brk <- addr + bytes;
  t.allocs <- (name, addr, bytes) :: t.allocs;
  addr

let allocs t = List.rev t.allocs

(* ---------------- contention ---------------- *)

let contend t ~now ~occupancy =
  let wait = max 0 (t.busy_until - now) in
  t.busy_until <- now + wait + occupancy;
  t.accesses <- t.accesses + 1;
  t.queued_cycles <- t.queued_cycles + wait;
  wait

let contend_words t ~now ~words =
  contend t ~now ~occupancy:(max 1 words * t.word_occupancy)

(* ---------------- data path ---------------- *)

(* Reads serve committed (durable) data only. *)
let read_u32_int t addr =
  check t addr 4 "Farmem.read_u32";
  Mem.get_u32_int t.media addr

let read_u8 t addr =
  check t addr 1 "Farmem.read_u8";
  Mem.get_u8 t.media addr

(* Writes land in the device cache and are recorded dirty. *)
let write_u32_int t addr x =
  check t addr 4 "Farmem.write_u32";
  Mem.set_u32_int t.shadow addr x;
  t.dirty <- (addr, 4) :: t.dirty

let write_u8 t addr v =
  check t addr 1 "Farmem.write_u8";
  Mem.set_u8 t.shadow addr v;
  t.dirty <- (addr, 1) :: t.dirty

let blit_to t ~addr (dst : Mem.t) ~pos ~len =
  check t addr len "Farmem.blit_to";
  Mem.blit t.media addr dst pos len

let blit_from t ~addr (src : Mem.t) ~pos ~len =
  check t addr len "Farmem.blit_from";
  Mem.blit src pos t.shadow addr len;
  t.dirty <- (addr, len) :: t.dirty

(* Drain the device cache: every dirty byte becomes durable, in one
   instant (data moves at the start of the latency window, like every
   other transfer in the simulator — durability is atomic at barrier
   granularity). *)
let barrier t =
  let flushed =
    List.fold_left
      (fun acc (addr, len) ->
        Mem.blit t.shadow addr t.media addr len;
        acc + len)
      0 t.dirty
  in
  t.dirty <- [];
  t.barriers <- t.barriers + 1;
  t.bytes_flushed <- t.bytes_flushed + flushed;
  flushed

let dirty_bytes t = List.fold_left (fun acc (_, len) -> acc + len) 0 t.dirty
let accesses t = t.accesses
let barriers t = t.barriers
let bytes_flushed t = t.bytes_flushed

(* ---------------- host-side (untimed) access ---------------- *)

(* Initialization pokes are durable by definition: they model the state
   the platform was provisioned with before power-on. *)
let poke_u32 t addr v =
  check t addr 4 "Farmem.poke_u32";
  Mem.set_u32_int t.media addr v;
  Mem.set_u32_int t.shadow addr v

let peek_u32 t addr = read_u32_int t addr

(* ---------------- crash / restore / recovery ---------------- *)

(* The durable image: exactly the media bytes.  The shadow is lost. *)
let image t = Mem.to_bytes t.media ~pos:0 ~len:t.size

let restore t (img : Bytes.t) =
  if Bytes.length img <> t.size then invalid_arg "Farmem.restore: size";
  Mem.blit_of_bytes img 0 t.media 0 t.size;
  (* after restart the device cache is clean: shadow = media *)
  Mem.blit_of_bytes img 0 t.shadow 0 t.size;
  t.dirty <- []

(* The sparse durable image: only the media bytes [recover] and the
   crash checker's torn-object check read — the superblock, each log
   slot's flag and record count plus, when the flag is set, its records,
   and the allocated data region [alloc_base, brk).  Every other media
   byte is either still zero or unread (the records of an uncommitted
   slot), so restoring the spans into a fresh, zero-on-demand device
   yields the same recovery and the same object payloads as the full
   [image]/[restore] round trip.  The device it restores into ends at
   the image's [brk], so both copies follow the bytes the run allocated
   rather than [farmem_bytes] — a full-size device would also charge the
   GC for its whole mapping, a major collection per restore. *)
type sparse = {
  sp_slots : int;
  sp_brk : int;
  sp_allocs : (string * int * int) list;
  spans : (int * Bytes.t) list;
}

let sparse_image t =
  let span addr len = (addr, Mem.to_bytes t.media ~pos:addr ~len) in
  let slot_span i =
    let slot = slot_addr t i in
    if Mem.get_u32_int t.media slot = 0 then span slot 8
    else begin
      (* walk the records as [recover] will, clamped to the device *)
      let pos = ref (slot + 8) in
      for _ = 1 to Mem.get_u32_int t.media (slot + 4) do
        if !pos + 8 <= t.size then
          pos := !pos + 8 + (4 * Mem.get_u32_int t.media (!pos + 4))
      done;
      span slot (min t.size !pos - slot)
    end
  in
  let alloc_base = align8 (8 + (t.slots * t.slot_bytes)) in
  {
    sp_slots = t.slots;
    sp_brk = t.brk;
    sp_allocs = t.allocs;
    spans =
      (span 0 8 :: List.init t.slots slot_span)
      @ [ span alloc_base (t.brk - alloc_base) ];
  }

let of_sparse ~word_occupancy (img : sparse) =
  let slots = img.sp_slots in
  let alloc_base = align8 (8 + (slots * log_slot_bytes)) in
  let t = create ~data_bytes:(img.sp_brk - alloc_base) ~word_occupancy ~slots in
  List.iter
    (fun (addr, b) ->
      let len = Bytes.length b in
      Mem.blit_of_bytes b 0 t.media addr len;
      Mem.blit_of_bytes b 0 t.shadow addr len)
    img.spans;
  t.allocs <- img.sp_allocs;
  t.brk <- img.sp_brk;
  t

type recovery = {
  committed : bool;     (* a committed log was found (and re-applied) *)
  records : int;        (* records applied *)
  words_applied : int;  (* total data words applied *)
}

(* Replay the redo log on the durable media, slot by slot in slot order
   (the order cannot matter: the object lock serializes commits, so at
   most one committed slot can mention any given object).  Idempotent:
   applying a committed slot twice writes the same bytes, and the
   cleared commit flag makes every later call a no-op.  An uncommitted
   slot (flag 0) is discarded untouched — the torn scope it may describe
   was never promised to anyone.  Geometry comes from the superblock in
   the image itself, so recovery needs no live backend state. *)
let recover t =
  let slots = Mem.get_u32_int t.media 0 in
  let slot_bytes = Mem.get_u32_int t.media 4 in
  let committed = ref false and records = ref 0 and applied = ref 0 in
  for i = 0 to slots - 1 do
    let slot = 8 + (i * slot_bytes) in
    check t slot slot_bytes "Farmem.recover: slot";
    let flag = Mem.get_u32_int t.media slot in
    if flag <> 0 then begin
      committed := true;
      let count = Mem.get_u32_int t.media (slot + 4) in
      let pos = ref (slot + 8) in
      for _ = 1 to count do
        let home = Mem.get_u32_int t.media !pos in
        let words = Mem.get_u32_int t.media (!pos + 4) in
        pos := !pos + 8;
        check t home (words * 4) "Farmem.recover: log record";
        for w = 0 to words - 1 do
          let v = Mem.get_u32_int t.media (!pos + (w * 4)) in
          Mem.set_u32_int t.media (home + (w * 4)) v;
          Mem.set_u32_int t.shadow (home + (w * 4)) v
        done;
        pos := !pos + (words * 4);
        applied := !applied + words
      done;
      records := !records + count;
      Mem.set_u32_int t.media slot 0;
      Mem.set_u32_int t.shadow slot 0
    end
  done;
  { committed = !committed; records = !records; words_applied = !applied }
