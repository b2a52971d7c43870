(* Idealized sequentially consistent back-end.

   "For a sequential consistent system, the implementation of the
   annotations is trivial; mutual exclusion is still required for the
   entry/exit pairs, but all other annotations can be ignored safely"
   (Section V-B).  Accesses hit a magic single-cycle shared memory; the
   entry/exit pairs keep their locks (exclusion is a correctness
   requirement, not a memory-model one).  This back-end is the correctness
   reference the others are tested against. *)

open Pmc_sim

type t = { m : Machine.t }

let name = "seqcst"

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

let fence _t = ()
let flush _t _o = ()

(* The magic memory is word-addressed: an access reads (and a write
   merges into) the word containing it; [width] bytes at the offset's
   lane, which is lane 0 for a word. *)
let word_addr (o : Shared.t) off = o.Shared.sdram_addr + (off / 4 * 4)
let[@inline] shift off = 8 * (off mod 4)
let[@inline] mask ~width = (1 lsl (8 * width)) - 1

let read t (o : Shared.t) ~width off =
  Engine.consume (Machine.engine t.m) Stats.Shared_read_stall 1;
  let w = Int32.to_int (Machine.peek_u32 t.m (word_addr o off)) in
  (w lsr shift off) land mask ~width

let write t (o : Shared.t) ~width off v =
  Engine.consume (Machine.engine t.m) Stats.Write_stall 1;
  let a = word_addr o off in
  let w = Int32.to_int (Machine.peek_u32 t.m a) in
  let lane = mask ~width lsl shift off in
  Machine.poke_u32 t.m a
    (Int32.of_int ((w land lnot lane) lor ((v lsl shift off) land lane)))

let peek_u32 t (o : Shared.t) word =
  Machine.peek_u32 t.m (o.Shared.sdram_addr + (4 * word))

let poke_u32 t (o : Shared.t) word v =
  Machine.poke_u32 t.m (o.Shared.sdram_addr + (4 * word)) v
