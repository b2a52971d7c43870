(* The simulated many-core SoC of Fig. 7: [cores] tiles, each with an
   in-order core, a private write-back D-cache and I-cache in front of a
   shared SDRAM, a dual-port local memory, and a write-only NoC that lets
   any core post writes into any other tile's local memory.

   Address space (flat integers):
     [0, uncached_base)             cached SDRAM
     [uncached_base, sdram_bytes)   uncached SDRAM
     [local_base + i*stride, +len)  tile i local memory

   Each tile's local memory is split into a DSM region (objects replicated
   at a common offset on every tile) and an SPM arena (scratch-pad
   allocations with stack discipline).

   Data movement happens at the *start* of an access's latency window;
   cycle costs are consumed afterwards.  This keeps the simulation
   deterministic and single-threaded while cores interleave at every
   consume point.

   All memories are flat [Mem.t] stores.  The tile memories are views of
   one zero-on-demand mapping, as are the D-cache line stores: one GC
   charge per memory kind instead of one per tile, each of which asked
   for a major slice (a 1024-tile [create] took twice as long).  Adjacent
   tiles are adjacent in the mapping, so the bounds checks below
   ([decode], [check_local]) are what keeps an access inside its tile.

   There is one timed load and one timed store; the access width (a byte
   or a word) is their argument, and only [Mem] branches on it.  They
   decode addresses inline (no [place] construction), read cache
   outcomes as int bitmasks, and stage NoC payloads into reusable
   buffers — a steady-state access allocates nothing; values travel as
   plain [int]s, and only the [load_u32]/[store_u32] wrappers box an
   [int32]. *)

type code_state = {
  mutable pc : int;
  mutable footprint : int;     (* code size in bytes *)
  mutable jump_prob : float;   (* probability of a taken jump per line *)
  prng : Prng.t;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  fault : Fault.t;
  sdram : Sdram.t;
  dcaches : Cache.t array;
  icaches : Icache.t array;
  locals : Mem.t array;
  noc : Noc.t;
  uncached_base : int;
  local_base : int;
  dsm_region_bytes : int;
  mutable cached_brk : int;
  mutable uncached_brk : int;
  mutable dsm_brk : int;         (* common offset across all tiles *)
  spm_sp : int array;            (* per-tile SPM stack pointer *)
  private_base : int array;      (* per-core private arena (cached SDRAM) *)
  code : code_state array;
  scratch : Mem.t;               (* staging for single-word posted writes *)
  staging : Mem.t array;         (* per-core NoC push staging, grown on use *)
  mutable farmem : Farmem.t option;  (* far-memory tier, created on demand *)
}

let private_bytes = 16 * 1024

let create (cfg : Config.t) : t =
  (* The cached region (half the SDRAM) must hold every tile's private
     arena plus shared-object headroom, so the SDRAM grows with the
     fabric: 64 KiB per tile, floored at the configured size.  The
     default 8 MiB covers up to 128 tiles unchanged (the seed machine
     and every golden run); a 1024-tile fabric gets 64 MiB. *)
  let cfg =
    let need = 4 * cfg.Config.cores * private_bytes in
    if cfg.Config.sdram_bytes >= need then cfg
    else { cfg with Config.sdram_bytes = need }
  in
  let engine = Engine.create cfg in
  let fault = Fault.create cfg in
  let sdram =
    Sdram.create ~size:cfg.sdram_bytes
      ~word_occupancy:cfg.sdram_word_occupancy
      ~line_occupancy:cfg.sdram_line_occupancy
  in
  (* one mapping per memory kind, cut into per-tile views (see Mem) *)
  let lines =
    Mem.create_views ~count:cfg.cores
      (cfg.dcache_sets * cfg.dcache_ways * cfg.line_bytes)
  in
  let dcaches =
    Array.init cfg.cores (fun i ->
        Cache.create ~sets:cfg.dcache_sets ~ways:cfg.dcache_ways
          ~line_bytes:cfg.line_bytes ~data:lines.(i)
          ~backing_read:(fun addr dst pos ->
            Sdram.read_line sdram addr dst ~pos ~len:cfg.line_bytes)
          ~backing_write:(fun addr src pos ->
            Sdram.write_line sdram addr src ~pos ~len:cfg.line_bytes))
  in
  let icaches =
    Array.init cfg.cores (fun _ ->
        Icache.create ~sets:cfg.icache_sets ~ways:cfg.icache_ways
          ~line_bytes:cfg.line_bytes)
  in
  let locals = Mem.create_views ~count:cfg.cores cfg.local_mem_bytes in
  let noc = Noc.create cfg fault engine locals in
  let seed_prng = Prng.create cfg.seed in
  let code =
    Array.init cfg.cores (fun _ ->
        { pc = 0; footprint = 8 * 1024; jump_prob = 0.05;
          prng = Prng.split seed_prng })
  in
  let uncached_base = cfg.sdram_bytes / 2 in
  let m =
    {
      cfg;
      engine;
      fault;
      sdram;
      dcaches;
      icaches;
      locals;
      noc;
      uncached_base;
      local_base = 0x1000_0000;
      dsm_region_bytes = cfg.local_mem_bytes / 2;
      cached_brk = 0;
      uncached_brk = uncached_base;
      dsm_brk = 0;
      spm_sp = Array.make cfg.cores (cfg.local_mem_bytes / 2);
      private_base = Array.make cfg.cores 0;
      code;
      scratch = Mem.create 8;
      staging = Array.init cfg.cores (fun _ -> Mem.create 64);
      farmem = None;
    }
  in
  (* carve out per-core private arenas from the cached region *)
  Array.iteri
    (fun i _ ->
      m.private_base.(i) <- m.cached_brk + (i * private_bytes))
    m.private_base;
  m.cached_brk <- m.cached_brk + (cfg.cores * private_bytes);
  (* Power failure (the chaos plane's tag 5): when armed, one closure at
     the seed-derived cut cycle kills the whole machine by raising
     [Engine.Power_cut] out of [Engine.run] — unless every task already
     finished, in which case the run simply completed before the cut.
     Nothing is scheduled when disarmed, so the disarmed machine's event
     sequence (and hence every tie-break) is bit-identical to the
     fault-free one. *)
  (match Fault.power_cut_at fault with
  | None -> ()
  | Some cut ->
      Engine.at engine ~time:cut (fun () ->
          if Engine.live_tasks engine > 0 then begin
            Fault.record_power_cut fault;
            let probe = Engine.probe engine in
            if Probe.active probe then
              Probe.emit probe ~time:cut
                (Probe.Fault (Probe.F_power_cut { cycle = cut }));
            raise (Engine.Power_cut cut)
          end));
  m

let config m = m.cfg
let engine m = m.engine
let fault m = m.fault

(* The far-memory tier, created on first use: a machine whose back-end
   never asks for it allocates nothing and behaves bit-identically to a
   build without the device. *)
let farmem m =
  match m.farmem with
  | Some f -> f
  | None ->
      let f =
        Farmem.create ~data_bytes:m.cfg.farmem_bytes
          ~word_occupancy:m.cfg.farmem_word_occupancy
          ~slots:m.cfg.cores
      in
      m.farmem <- Some f;
      f

let farmem_opt m = m.farmem
let link_dead m ~src ~dst = Noc.link_dead m.noc ~src ~dst
let stats m = Engine.stats m.engine
let probe m = Engine.probe m.engine
let spawn ?start m ~core f = Engine.spawn ?start m.engine ~core f
let run m = Engine.run m.engine
let core_id m = Engine.core_id m.engine
let now m = Engine.now m.engine

(* ---------------- allocation ---------------- *)

let align_up v a = (v + a - 1) / a * a

(* Shared objects are cache-line aligned and never share a line with
   another object (Section V-B: "All shared objects are aligned to a cache
   line ... and cannot overlap with other objects"). *)
(* Exhaustion reports what was asked against what was left, so the
   failing allocation can be sized without a debugger. *)
let exhausted ?core ~op ~requested ~available () =
  Pmc_error.raise_error ?core ~op
    "arena exhausted: requested %d bytes, %d available" requested available

let alloc_cached m ~bytes =
  let a = align_up m.cached_brk m.cfg.line_bytes in
  if a + align_up bytes m.cfg.line_bytes > m.uncached_base then
    exhausted ~op:"Machine.alloc_cached" ~requested:bytes
      ~available:(max 0 (m.uncached_base - a)) ();
  m.cached_brk <- a + align_up bytes m.cfg.line_bytes;
  a

let alloc_uncached m ~bytes =
  let a = align_up m.uncached_brk m.cfg.line_bytes in
  if a + align_up bytes m.cfg.line_bytes > m.cfg.sdram_bytes then
    exhausted ~op:"Machine.alloc_uncached" ~requested:bytes
      ~available:(max 0 (m.cfg.sdram_bytes - a)) ();
  m.uncached_brk <- a + align_up bytes m.cfg.line_bytes;
  a

(* DSM objects live at the same offset in every tile's local memory. *)
let alloc_dsm m ~bytes : int =
  let off = align_up m.dsm_brk 4 in
  if off + align_up bytes 4 > m.dsm_region_bytes then
    exhausted ~op:"Machine.alloc_dsm" ~requested:bytes
      ~available:(max 0 (m.dsm_region_bytes - off)) ();
  m.dsm_brk <- off + align_up bytes 4;
  off

(* SPM stack allocation in the upper half of the local memory. *)
let spm_alloc m ~core ~bytes : int =
  let off = m.spm_sp.(core) in
  let next = align_up (off + bytes) 4 in
  if next > m.cfg.local_mem_bytes then
    exhausted ~core ~op:"Machine.spm_alloc" ~requested:bytes
      ~available:(max 0 (m.cfg.local_mem_bytes - off)) ();
  m.spm_sp.(core) <- next;
  off

let spm_mark m ~core = m.spm_sp.(core)
let spm_release m ~core mark = m.spm_sp.(core) <- mark

(* ---------------- address decoding ---------------- *)

type place =
  | Cached_sdram of int
  | Uncached_sdram of int
  | Local of { tile : int; off : int }

let local_addr m ~tile ~off = m.local_base + (tile * m.cfg.local_mem_bytes) + off

let decode m addr : place =
  if addr >= m.local_base then begin
    let rel = addr - m.local_base in
    let tile = rel / m.cfg.local_mem_bytes in
    let off = rel mod m.cfg.local_mem_bytes in
    if tile >= m.cfg.cores then invalid_arg "Machine: bad local address";
    Local { tile; off }
  end
  else if addr >= m.uncached_base then Uncached_sdram addr
  else Cached_sdram addr

(* Mem accessors are unsafe and the tile memories are adjacent views of
   one mapping, so this check is all that keeps an access (or a caller's
   DMA / NoC offset) from landing in a neighbour tile. *)
let[@inline] check_local m off len =
  if off < 0 || off > m.cfg.local_mem_bytes - len then
    invalid_arg "Machine: local access out of bounds"

(* ---------------- timed accesses ---------------- *)

let[@inline] miss_cycles m oc =
  let c = ref 0 in
  if Cache.refilled oc then
    c := !c + Sdram.contend_line m.sdram ~now:(now m)
         + m.cfg.sdram_line_cycles;
  if Cache.wrote_back oc then
    c := !c + Sdram.contend_line m.sdram ~now:(now m)
         + m.cfg.sdram_line_cycles;
  !c

let[@inline] count_dcache m core (oc : Cache.outcome) =
  let s = Stats.core (stats m) core in
  if Cache.hit oc then s.Stats.dcache_hits <- s.Stats.dcache_hits + 1
  else s.Stats.dcache_misses <- s.Stats.dcache_misses + 1

let[@inline] read_stall_cat ~shared =
  if shared then Stats.Shared_read_stall else Stats.Private_read_stall

exception Remote_read of { core : int; tile : int }
(* reading another tile's local memory is impossible on the write-only
   interconnect *)

(* Transient tile stall (the chaos plane): drawn per timed-access entry
   point; pure waiting — the tile is frozen, not working — so the cycles
   are idled, not attributed to a stall category. *)
let maybe_stall m ~core =
  if Fault.enabled m.fault then begin
    let cycles = Fault.tile_stall m.fault ~core in
    if cycles > 0 then begin
      if Probe.active (probe m) then
        Probe.emit (probe m) ~time:(now m)
          (Probe.Fault (Probe.F_tile_stall { core; cycles }));
      Engine.idle m.engine cycles
    end
  end

(* Transient SDRAM read errors (the chaos plane): each detected error
   costs one extra word round-trip to re-read; after [sdram_retry_limit]
   consecutive errors the access fails with a typed error rather than
   returning bad data. *)
let sdram_read_faults m ~core ~cat =
  if Fault.enabled m.fault then begin
    let attempt = ref 0 in
    while Fault.sdram_error m.fault ~core do
      incr attempt;
      if Probe.active (probe m) then
        Probe.emit (probe m) ~time:(now m)
          (Probe.Fault (Probe.F_sdram_retry { core; attempt = !attempt }));
      if !attempt > m.cfg.sdram_retry_limit then
        Pmc_error.raise_error ~core ~op:"Machine.sdram_read"
          "transient SDRAM read error persisted after %d retries"
          m.cfg.sdram_retry_limit;
      Engine.consume m.engine cat m.cfg.sdram_word_cycles
    done
  end

let[@inline] check_addr addr =
  if addr < 0 then invalid_arg "Machine: negative address"

(* Book-keep one posted write of [len] bytes and pay its injection
   stall. *)
let[@inline] charge_post m ~core ~len =
  let s = Stats.core (stats m) core in
  s.Stats.noc_writes <- s.Stats.noc_writes + 1;
  s.Stats.noc_flits <- s.Stats.noc_flits + 2;
  Engine.consume m.engine Stats.Write_stall (Noc.injection_cost m.noc ~len)

(* The one timed load and the one timed store: [width] is 1 (a byte —
   "in general, only bytes are indivisible", Sec. IV-A) or 4 (a word),
   and only [Mem] branches on it. *)
let load m ~shared ~width addr : int =
  check_addr addr;
  let core = core_id m in
  maybe_stall m ~core;
  if addr >= m.local_base then begin
    let rel = addr - m.local_base in
    let tile = rel / m.cfg.local_mem_bytes in
    let off = rel mod m.cfg.local_mem_bytes in
    if tile >= m.cfg.cores then invalid_arg "Machine: bad local address";
    if tile <> core then raise (Remote_read { core; tile });
    check_local m off width;
    Engine.consume m.engine (read_stall_cat ~shared) m.cfg.local_mem_cycles;
    Mem.get m.locals.(tile) ~width off
  end
  else if addr >= m.uncached_base then begin
    let wait = Sdram.contend_word m.sdram ~now:(now m) in
    Engine.consume m.engine (read_stall_cat ~shared)
      (wait + m.cfg.sdram_word_cycles);
    sdram_read_faults m ~core ~cat:(read_stall_cat ~shared);
    Sdram.read m.sdram ~width addr
  end
  else begin
    let c = m.dcaches.(core) in
    let v = Cache.load c ~width addr in
    let oc = Cache.last c in
    count_dcache m core oc;
    Engine.consume m.engine Stats.Busy m.cfg.dcache_hit_cycles;
    if not (Cache.hit oc) then begin
      Engine.consume m.engine (read_stall_cat ~shared) (miss_cycles m oc);
      sdram_read_faults m ~core ~cat:(read_stall_cat ~shared)
    end;
    v
  end

let store m ~shared:_ ~width addr (x : int) : unit =
  check_addr addr;
  let core = core_id m in
  if addr >= m.local_base then begin
    let rel = addr - m.local_base in
    let tile = rel / m.cfg.local_mem_bytes in
    let off = rel mod m.cfg.local_mem_bytes in
    if tile >= m.cfg.cores then invalid_arg "Machine: bad local address";
    check_local m off width;
    if tile = core then begin
      Engine.consume m.engine Stats.Write_stall m.cfg.local_mem_cycles;
      Mem.set m.locals.(tile) ~width off x
    end
    else begin
      (* posted write over the NoC *)
      charge_post m ~core ~len:width;
      Mem.set m.scratch ~width 0 x;
      ignore
        (Noc.post_write m.noc ~src:core ~dst:tile ~off m.scratch ~pos:0
           ~len:width)
    end
  end
  else if addr >= m.uncached_base then begin
    let wait = Sdram.contend_word m.sdram ~now:(now m) in
    Engine.consume m.engine Stats.Write_stall
      (wait + m.cfg.sdram_word_cycles);
    Sdram.write m.sdram ~width addr x
  end
  else begin
    let c = m.dcaches.(core) in
    Cache.store c ~width addr x;
    let oc = Cache.last c in
    count_dcache m core oc;
    Engine.consume m.engine Stats.Busy m.cfg.dcache_hit_cycles;
    if Cache.refilled oc || Cache.wrote_back oc then
      Engine.consume m.engine Stats.Write_stall (miss_cycles m oc)
  end

let load_u32 m ~shared addr : int32 =
  Int32.of_int (load m ~shared ~width:4 addr)

let store_u32 m ~shared addr (v : int32) =
  store m ~shared ~width:4 addr (Int32.to_int v)

(* Unordered remote write with caller-chosen latency: the Fig. 1 machine,
   where different memories sit at different distances. *)
let store_u32_remote_raw m ~dst ~off ~latency (v : int32) =
  let core = core_id m in
  check_local m off 4;
  charge_post m ~core ~len:4;
  Mem.set_u32 m.scratch 0 v;
  ignore
    (Noc.post_write_at m.noc ~src:core ~dst ~off ~latency m.scratch ~pos:0
       ~len:4)

(* Snapshot [len] bytes of [core]'s local memory into its staging buffer
   *before* the injection stall is consumed — a NoC delivery landing in
   the source range during the stall must not change what was posted. *)
let stage_push m ~core ~src_off ~len =
  if Mem.length m.staging.(core) < len then begin
    let cap = ref (Mem.length m.staging.(core)) in
    while !cap < len do
      cap := 2 * !cap
    done;
    m.staging.(core) <- Mem.create !cap
  end;
  Mem.blit m.locals.(core) src_off m.staging.(core) 0 len

(* Push [len] bytes of my local memory at [src_off] into tile [dst] at
   [dst_off] over the NoC (the DSM back-end's replication primitive).
   Returns the arrival time of the posted write. *)
let noc_push_arrival m ~dst ~src_off ~dst_off ~len : int =
  let core = core_id m in
  if dst = core then invalid_arg "noc_push to self";
  check_local m src_off len;
  check_local m dst_off len;
  stage_push m ~core ~src_off ~len;
  let s = Stats.core (stats m) core in
  s.Stats.noc_writes <- s.Stats.noc_writes + 1;
  s.Stats.noc_flits <- s.Stats.noc_flits + 1 + ((len + 3) / 4);
  Engine.consume m.engine Stats.Write_stall (Noc.injection_cost m.noc ~len);
  Noc.post_write m.noc ~src:core ~dst ~off:dst_off m.staging.(core) ~pos:0
    ~len

let noc_push m ~dst ~src_off ~dst_off ~len =
  ignore (noc_push_arrival m ~dst ~src_off ~dst_off ~len)

(* Replicate [len] bytes of my local memory into every tile of [dsts].
   With [Config.batched] the sender frames one burst — one header
   flit plus the payload, one injection cost — and the NoC fans it out;
   without it the replication degrades to one unicast push per tile,
   paying header and injection per destination (the unbatched model).
   Returns the latest arrival time across destinations (now if none). *)
let noc_push_multi m ~dsts ~src_off ~dst_off ~len : int =
  let core = core_id m in
  let dsts = List.filter (fun d -> d <> core) dsts in
  match dsts with
  | [] -> now m
  | dsts when m.cfg.Config.batched ->
      check_local m src_off len;
      check_local m dst_off len;
      stage_push m ~core ~src_off ~len;
      let s = Stats.core (stats m) core in
      s.Stats.noc_writes <- s.Stats.noc_writes + List.length dsts;
      s.Stats.noc_flits <- s.Stats.noc_flits + 1 + ((len + 3) / 4);
      Engine.consume m.engine Stats.Write_stall
        (Noc.injection_cost m.noc ~len);
      Noc.post_multicast m.noc ~src:core ~dsts ~off:dst_off m.staging.(core)
        ~pos:0 ~len
  | dsts ->
      List.fold_left
        (fun acc dst ->
          max acc (noc_push_arrival m ~dst ~src_off ~dst_off ~len))
        (now m) dsts

(* DMA data paths between SDRAM and a tile's local memory (the SPM
   staging copies).  Data only — the caller charges the burst timing. *)
let blit_sdram_to_local m ~core ~sdram ~off ~len =
  check_local m off len;
  Sdram.blit_to m.sdram ~addr:sdram m.locals.(core) ~pos:off ~len

let blit_local_to_sdram m ~core ~off ~sdram ~len =
  check_local m off len;
  Sdram.blit_from m.sdram ~addr:sdram m.locals.(core) ~pos:off ~len

(* DMA data paths between the far-memory tier and a tile's local memory
   (the farmem back-end's staging copies).  Data only — the caller
   charges the burst timing.  Reads serve the durable media, writes land
   in the device cache (durable only after a barrier). *)
let blit_farmem_to_local m ~core ~far ~off ~len =
  check_local m off len;
  Farmem.blit_to (farmem m) ~addr:far m.locals.(core) ~pos:off ~len

let blit_local_to_farmem m ~core ~off ~far ~len =
  check_local m off len;
  Farmem.blit_from (farmem m) ~addr:far m.locals.(core) ~pos:off ~len

(* One SDRAM port arbitration for a single word access — the per-word
   staging model used when [Config.batched] is off. *)
let sdram_word_wait m = Sdram.contend_word m.sdram ~now:(now m)

(* Wait until all of this core's posted NoC writes have landed.  Under
   faults a retransmission drawn at a future delivery attempt can push
   the horizon past what [drain_wait] promised, so the drain loops until
   nothing of this core's is in flight — retries and relay deliveries
   included.  With the fault plane off, the first wait is exact and the
   loop is never entered. *)
let noc_drain m =
  let core = core_id m in
  Engine.consume m.engine Stats.Write_stall
    (Noc.drain_wait m.noc ~src:core);
  if Fault.enabled m.fault then
    while Noc.outstanding m.noc ~src:core > 0 do
      Engine.consume m.engine Stats.Write_stall
        (max 1 (Noc.drain_wait m.noc ~src:core))
    done

(* ---------------- cache maintenance ---------------- *)

let maint_cycles m (r : Cache.maint) =
  (* one cycle per line tag probe plus the write-back traffic.  Batched
     ([Config.batched]): the range operation drains its dirty lines
     as one burst — one port arbitration for the whole range.  Unbatched:
     every line arbitrates (and possibly queues) separately. *)
  let wb =
    if r.Cache.lines_written_back = 0 then 0
    else if m.cfg.Config.batched then
      Sdram.contend_burst m.sdram ~now:(now m)
        ~lines:r.Cache.lines_written_back
      + (r.Cache.lines_written_back * m.cfg.sdram_line_cycles)
    else begin
      let wb = ref 0 in
      for _ = 1 to r.Cache.lines_written_back do
        wb := !wb + Sdram.contend_line m.sdram ~now:(now m)
              + m.cfg.sdram_line_cycles
      done;
      !wb
    end
  in
  r.Cache.lines_touched + wb

let wb_inval_range m ~addr ~len =
  let core = core_id m in
  if addr < 0 || addr >= m.uncached_base then
    invalid_arg "wb_inval_range: not a cached address";
  let r = Cache.wb_inval_range m.dcaches.(core) ~addr ~len in
  let s = Stats.core (stats m) core in
  s.Stats.flushes <- s.Stats.flushes + 1;
  if Probe.active (probe m) then
    Probe.emit (probe m) ~time:(now m)
      (Probe.Cache_maint
         { core; op = Probe.Wb_inval; addr; len;
           lines_touched = r.Cache.lines_touched;
           lines_written_back = r.Cache.lines_written_back });
  Engine.consume m.engine Stats.Flush_overhead (maint_cycles m r)

let inval_range m ~addr ~len =
  let core = core_id m in
  let r = Cache.inval_range m.dcaches.(core) ~addr ~len in
  if Probe.active (probe m) then
    Probe.emit (probe m) ~time:(now m)
      (Probe.Cache_maint
         { core; op = Probe.Inval; addr; len;
           lines_touched = r.Cache.lines_touched;
           lines_written_back = r.Cache.lines_written_back });
  Engine.consume m.engine Stats.Flush_overhead (maint_cycles m r)

(* ---------------- instruction stream ---------------- *)

let set_code m ~core ~footprint ~jump_prob =
  let c = m.code.(core) in
  c.footprint <- footprint;
  c.jump_prob <- jump_prob;
  c.pc <- 0

(* Execute [n] instructions: 1 busy cycle each, plus I-cache miss stalls.
   The instruction stream walks the core's code footprint sequentially
   with occasional jumps to a random target, through a real I-cache. *)
let instr m n =
  if n > 0 then begin
    let core = core_id m in
    maybe_stall m ~core;
    let c = m.code.(core) in
    let ic = m.icaches.(core) in
    let s = Stats.core (stats m) core in
    let line = m.cfg.line_bytes in
    let per_line = line / 4 in
    let remaining = ref n in
    let stall = ref 0 in
    while !remaining > 0 do
      let burst = min !remaining per_line in
      if not (Icache.fetch_line ic c.pc) then begin
        s.Stats.icache_misses <- s.Stats.icache_misses + 1;
        stall := !stall + m.cfg.icache_miss_cycles
      end;
      remaining := !remaining - burst;
      if Prng.bool c.prng c.jump_prob then
        c.pc <- Prng.int c.prng (max 1 (c.footprint / line)) * line
      else c.pc <- (c.pc + line) mod c.footprint
    done;
    s.Stats.instructions <- s.Stats.instructions + n;
    Engine.consume m.engine Stats.Busy n;
    if !stall > 0 then Engine.consume m.engine Stats.Icache_stall !stall
  end

(* Pure busy work without instruction-cache modelling. *)
let busy m n = Engine.consume m.engine Stats.Busy n

(* ---------------- private data ---------------- *)

(* Private per-core array access (stack/heap stand-in): word [idx] of this
   core's private arena, through the D-cache. *)
let private_load m idx : int32 =
  let core = core_id m in
  let addr = m.private_base.(core) + (idx * 4) mod private_bytes in
  load_u32 m ~shared:false addr

let private_store m idx v =
  let core = core_id m in
  let addr = m.private_base.(core) + (idx * 4) mod private_bytes in
  store_u32 m ~shared:false addr v

(* ---------------- untimed debug access ---------------- *)

(* Read backing storage directly, bypassing caches and timing — test and
   initialization use only. *)
let peek_u32 m addr : int32 =
  match decode m addr with
  | Cached_sdram a | Uncached_sdram a -> Sdram.read_u32 m.sdram a
  | Local { tile; off } ->
      check_local m off 4;
      Mem.get_u32 m.locals.(tile) off

let poke_u32 m addr v =
  match decode m addr with
  | Cached_sdram a | Uncached_sdram a -> Sdram.write_u32 m.sdram a v
  | Local { tile; off } ->
      check_local m off 4;
      Mem.set_u32 m.locals.(tile) off v

let dcache m ~core = m.dcaches.(core)

(* Atomic test-and-set on an uncached SDRAM word: consumes the full
   round-trip first, then performs the read-modify-write in one step, so
   it is atomic in simulated time.  The RMW locks the memory port for the
   whole read+write pair, which is what makes centralized spinlocks
   poisonous under contention (the problem the distributed lock [15]
   avoids). *)
let uncached_tas m addr : int32 =
  (match decode m addr with
  | Uncached_sdram _ -> ()
  | _ -> invalid_arg "uncached_tas: not an uncached address");
  let wait =
    Sdram.contend m.sdram ~now:(now m)
      ~occupancy:(4 * m.cfg.sdram_word_occupancy)
  in
  Engine.consume m.engine Stats.Lock_stall
    (wait + (2 * m.cfg.sdram_word_cycles));
  let old = Sdram.read_u32 m.sdram addr in
  Sdram.write_u32 m.sdram addr 1l;
  old
