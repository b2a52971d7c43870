(* The 'no CC' reference setup of the Fig. 8 experiment: "all application
   data that is shared between processors resides in uncached memory; so
   no cache coherency protocol is required and all cache flushes are
   nullified".

   Shared objects live in the uncached SDRAM region; every access pays the
   full SDRAM round-trip plus port contention.  Private data (driven
   through [Machine.private_load]/[private_store] by the applications)
   stays cached in this setup, exactly as in the paper. *)

open Pmc_sim

type t = { m : Machine.t }

let name = "nocc"

let create m = { m }
let machine t = t.m

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  o.Shared.sdram_addr <- Machine.alloc_uncached t.m ~bytes;
  o

let entry_x _t (o : Shared.t) = Pmc_lock.Dlock.acquire o.Shared.lock
let exit_x _t (o : Shared.t) = Pmc_lock.Dlock.release o.Shared.lock

let entry_ro _t (o : Shared.t) =
  if not (Shared.is_atomic_sized o) then
    Pmc_lock.Dlock.acquire_ro o.Shared.lock

let exit_ro _t (o : Shared.t) =
  if not (Shared.is_atomic_sized o) then
    Pmc_lock.Dlock.release_ro o.Shared.lock

(* in-order core: the fence is purely a compiler barrier *)
let fence _t = ()

(* cache flushes are nullified — there is nothing cached to flush *)
let flush _t _o = ()

let read t (o : Shared.t) ~width off =
  Machine.load t.m ~shared:true ~width (o.Shared.sdram_addr + off)

let write t (o : Shared.t) ~width off v =
  Machine.store t.m ~shared:true ~width (o.Shared.sdram_addr + off) v

let peek_u32 t (o : Shared.t) word =
  Machine.peek_u32 t.m (o.Shared.sdram_addr + (4 * word))

let poke_u32 t (o : Shared.t) word v =
  Machine.poke_u32 t.m (o.Shared.sdram_addr + (4 * word)) v
