(* Far-memory back-end (the sixth column): the canonical version of every
   shared object lives in the durable far-memory tier behind SDRAM
   ([Pmc_sim.Farmem]), and exclusive scopes publish through a redo log so
   that a power cut can never leave a torn object.

   Scoping is the SPM staging discipline (Table II, fourth column),
   shared with the spm back-end through [Staging]: entering a scope
   stages the object into the tile's scratch-pad, scope accesses hit the
   scratch-pad at local-memory speed, and leaving an exclusive scope
   publishes the staged bytes back.  What changes is the publication
   path:

     entry_x   lock; copy far memory → SPM
     exit_x    commit (below); free the SPM space; unlock
     entry_ro  copy far memory → SPM, locking around the copy unless the
               object is atomic-sized
     exit_ro   discard the SPM copy
     flush     commit while staying in the scope
     fence     compiler barrier only

   A commit is failure-atomic via the redo log in the durable region
   (this core's log slot):

     1. log    write [payload words + publication count] as redo records
               into the slot; flush barrier (log durable)
     2. commit write the slot's commit flag; barrier (commit durable)
     3. apply  write the payload in place and bump the object's durable
               publication count; barrier
     4. trunc  clear the commit flag; barrier

   A cut before 2 discards the scope (the log is uncommitted); a cut
   after 2 lets recovery re-apply it; either way the object carries all
   of the scope's bytes or none, and its publication count says which.
   Readers always see durable media ([Farmem] serves reads from the
   media, never the device cache), so nothing visible can be lost —
   "visible implies durable", which is what makes checking the durable
   prefix of a crashed run's trace sound.

   With [Config.farmem_log] off the commit degrades to word-by-word
   in-place writes with a barrier after each word — the deliberately
   tearable debug mode the crash checker must catch. *)

open Pmc_sim
module Dev = Pmc_sim.Farmem

(* Each object's durable allocation: an 8-byte header (word 0 = the
   publication count, word 1 pad) followed by the word-aligned payload. *)
let header_bytes = 8

let dev m = Machine.farmem m
let payload_addr (o : Shared.t) = o.Shared.sdram_addr + header_bytes

(* ---------------- timing ---------------- *)

let[@inline] consume m cat cycles = Engine.consume (Machine.engine m) cat cycles

(* A streamed burst of [words]: one device latency plus a per-word
   streaming cost, after queuing on the (slow, narrow) far-memory port. *)
let burst_cost m ~words =
  let cfg = Machine.config m in
  Dev.contend_words (dev m) ~now:(Machine.now m) ~words
  + cfg.Config.farmem_word_cycles
  + (words * cfg.Config.farmem_burst_word_cycles)

let word_cost m = burst_cost m ~words:1

(* Drain the device cache.  The data move is instantaneous at the start
   of the latency window (like every transfer in the simulator), the
   cycles are consumed after — so durability is atomic at the barrier. *)
let barrier m =
  let cfg = Machine.config m in
  let wait =
    Dev.contend (dev m) ~now:(Machine.now m)
      ~occupancy:cfg.Config.farmem_word_occupancy
  in
  ignore (Dev.barrier (dev m));
  consume m Stats.Flush_overhead (wait + cfg.Config.farmem_barrier_cycles)

(* ---------------- publication ---------------- *)

(* Read the object's durable publication count (the media is always the
   last committed value — commits finish before the lock is released). *)
let read_pub_count m (o : Shared.t) =
  let count = Dev.read_u32_int (dev m) o.Shared.sdram_addr in
  consume m Stats.Flush_overhead (word_cost m);
  count

(* Failure-atomic commit through this core's redo-log slot. *)
let commit_logged m (o : Shared.t) ~spm_off =
  let core = Machine.core_id m in
  let d = dev m in
  let words = Shared.words o in
  let base = o.Shared.sdram_addr in
  let slot = Dev.slot_addr d core in
  (* two records: the payload, and the bumped publication count *)
  let need = 8 + (8 + (4 * words)) + 12 in
  if need > Dev.log_slot_bytes then
    Pmc_error.raise_error ~core ~obj:o.Shared.name ~op:"Farmem.commit"
      "object too large for a redo-log slot (%d > %d bytes)" need
      Dev.log_slot_bytes;
  let count = read_pub_count m o in
  (* 1. build the log in the device cache, then make it durable *)
  Dev.write_u32_int d (slot + 8) (base + header_bytes);
  Dev.write_u32_int d (slot + 12) words;
  Machine.blit_local_to_farmem m ~core ~off:spm_off ~far:(slot + 16)
    ~len:(4 * words);
  let hrec = slot + 16 + (4 * words) in
  Dev.write_u32_int d hrec base;
  Dev.write_u32_int d (hrec + 4) 1;
  Dev.write_u32_int d (hrec + 8) (count + 1);
  Dev.write_u32_int d (slot + 4) 2;
  consume m Stats.Flush_overhead (burst_cost m ~words:(words + 6));
  barrier m;
  (* 2. commit record *)
  Dev.write_u32_int d slot 1;
  consume m Stats.Flush_overhead (word_cost m);
  barrier m;
  (* 3. apply in place *)
  Machine.blit_local_to_farmem m ~core ~off:spm_off
    ~far:(base + header_bytes) ~len:(4 * words);
  Dev.write_u32_int d base (count + 1);
  consume m Stats.Flush_overhead (burst_cost m ~words:(words + 1));
  barrier m;
  (* 4. truncate *)
  Dev.write_u32_int d slot 0;
  consume m Stats.Flush_overhead (word_cost m);
  barrier m

(* The tearable debug mode ([Config.farmem_log] off): in-place word
   writes, each made durable on its own — a cut mid-commit leaves a
   prefix of new words over a suffix of old ones. *)
let commit_unlogged m (o : Shared.t) ~spm_off =
  let core = Machine.core_id m in
  let d = dev m in
  let words = Shared.words o in
  let base = o.Shared.sdram_addr in
  let count = read_pub_count m o in
  for w = 0 to words - 1 do
    Machine.blit_local_to_farmem m ~core ~off:(spm_off + (4 * w))
      ~far:(base + header_bytes + (4 * w)) ~len:4;
    consume m Stats.Flush_overhead (word_cost m);
    barrier m
  done;
  Dev.write_u32_int d base (count + 1);
  consume m Stats.Flush_overhead (word_cost m);
  barrier m

(* ---------------- the annotation protocol ---------------- *)

include Staging.Make (struct
  let name = "farmem"
  let scope_kind = "far-memory"

  let copy_in m (o : Shared.t) ~spm_off =
    let core = Machine.core_id m in
    let words = Shared.words o in
    Machine.blit_farmem_to_local m ~core ~far:(payload_addr o) ~off:spm_off
      ~len:(4 * words);
    consume m Stats.Shared_read_stall (burst_cost m ~words)

  let publish m (o : Shared.t) ~spm_off =
    if (Machine.config m).Config.farmem_log then commit_logged m o ~spm_off
    else commit_unlogged m o ~spm_off
end)

(* instantiate the device up front: the persistence domain exists from
   cycle 0, like the SDRAM it sits behind *)
let create m =
  ignore (Machine.farmem m);
  create m

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  let words = Shared.words o in
  (* sdram_addr holds the object's far-memory base (header address);
     only this back-end interprets it *)
  o.Shared.sdram_addr <-
    Dev.alloc (dev t.m) ~name ~bytes:(header_bytes + (4 * words));
  o

(* ---------------- untimed host access ---------------- *)

let peek_u32 t (o : Shared.t) word =
  Int32.of_int (Dev.peek_u32 (dev t.m) (payload_addr o + (4 * word)))

let poke_u32 t (o : Shared.t) word v =
  Dev.poke_u32 (dev t.m) (payload_addr o + (4 * word)) (Int32.to_int v)
