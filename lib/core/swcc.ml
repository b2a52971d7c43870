(* Software cache coherency back-end (Table II, second column) — the
   BACKER-like protocol of the paper's main experiment.

   Shared objects live in *cached* SDRAM.  The protocol maintains the
   invariant that an object's lines are not resident in any cache outside
   an entry/exit pair:

     entry_x   acquire the distributed lock; conservatively invalidate the
               object's lines (they are clean-absent when the discipline is
               followed, so this costs only tag probes);
     exit_x    write back and invalidate the object's lines, then release —
               the MicroBlaze cache cannot reconcile a dirty line without
               evicting it, so flush means wb+inval;
     entry_ro  atomic-sized objects need nothing; larger ones take the
               object's lock to avoid torn reads;
     exit_ro   flush (invalidate; the lines are clean) and unlock;
     flush     write the object's dirty lines back while keeping the lock;
     fence     compiler barrier only — the core is in-order, "the fence
               does not emit any instructions". *)

open Pmc_sim

type t = { m : Machine.t }

let name = "swcc"

let create m = { m }
let machine t = t.m

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  o.Shared.sdram_addr <- Machine.alloc_cached t.m ~bytes;
  o

let entry_x t (o : Shared.t) =
  Pmc_lock.Dlock.acquire o.Shared.lock;
  Machine.inval_range t.m ~addr:o.Shared.sdram_addr ~len:o.Shared.size

let exit_x t (o : Shared.t) =
  Machine.wb_inval_range t.m ~addr:o.Shared.sdram_addr ~len:o.Shared.size;
  Pmc_lock.Dlock.release o.Shared.lock

let entry_ro _t (o : Shared.t) =
  if not (Shared.is_atomic_sized o) then
    Pmc_lock.Dlock.acquire_ro o.Shared.lock

let exit_ro t (o : Shared.t) =
  (* the object leaves the cache at scope exit: next reader re-fetches the
     newest version from SDRAM *)
  Machine.wb_inval_range t.m ~addr:o.Shared.sdram_addr ~len:o.Shared.size;
  if not (Shared.is_atomic_sized o) then
    Pmc_lock.Dlock.release_ro o.Shared.lock

let fence _t = ()

let flush t (o : Shared.t) =
  Machine.wb_inval_range t.m ~addr:o.Shared.sdram_addr ~len:o.Shared.size

let read t (o : Shared.t) ~width off =
  Machine.load t.m ~shared:true ~width (o.Shared.sdram_addr + off)

let write t (o : Shared.t) ~width off v =
  Machine.store t.m ~shared:true ~width (o.Shared.sdram_addr + off) v

let peek_u32 t (o : Shared.t) word =
  Machine.peek_u32 t.m (o.Shared.sdram_addr + (4 * word))

let poke_u32 t (o : Shared.t) word v =
  Machine.poke_u32 t.m (o.Shared.sdram_addr + (4 * word)) v
