(* Scratch-pad memory back-end (Table II, fourth column) — the motion
   estimation setup of Section VI-C.

   The canonical version of every shared object lives in SDRAM (accessed
   uncached here: the SPM holds the working copy, so the D-cache adds
   nothing but interference).  Scopes follow the staging discipline of
   [Staging]: entering one copies SDRAM → SPM, every access inside hits
   the scratch-pad at local-memory speed, and leaving an exclusive scope
   (or a flush) copies SPM → SDRAM; leaving a read-only scope discards
   the copy. *)

open Pmc_sim

(* Burst copy between SDRAM and the SPM.  With [Config.batched] the
   DMA engine streams the whole object in one burst: a single SDRAM
   latency plus a per-word streaming cost.  With batching off, every word
   is a separate port access that arbitrates (and possibly queues) on its
   own — the pre-batching model the equivalence tests compare against. *)
let copy_cycles m ~words =
  let cfg = Machine.config m in
  if cfg.Config.batched then cfg.Config.sdram_word_cycles + (words * 2)
  else begin
    let c = ref 0 in
    for _ = 1 to words do
      c := !c + Machine.sdram_word_wait m + cfg.Config.sdram_word_cycles
    done;
    !c
  end

include Staging.Make (struct
  let name = "spm"
  let scope_kind = "SPM"

  let copy_in m (o : Shared.t) ~spm_off =
    let core = Machine.core_id m in
    let words = Shared.words o in
    Machine.blit_sdram_to_local m ~core ~sdram:o.Shared.sdram_addr
      ~off:spm_off ~len:(4 * words);
    Engine.consume (Machine.engine m) Stats.Shared_read_stall
      (copy_cycles m ~words)

  let publish m (o : Shared.t) ~spm_off =
    let core = Machine.core_id m in
    let words = Shared.words o in
    Machine.blit_local_to_sdram m ~core ~off:spm_off
      ~sdram:o.Shared.sdram_addr ~len:(4 * words);
    Engine.consume (Machine.engine m) Stats.Flush_overhead
      (copy_cycles m ~words)
end)

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  o.Shared.sdram_addr <- Machine.alloc_uncached t.m ~bytes;
  o

let peek_u32 t (o : Shared.t) word =
  Machine.peek_u32 t.m (o.Shared.sdram_addr + (4 * word))

let poke_u32 t (o : Shared.t) word v =
  Machine.poke_u32 t.m (o.Shared.sdram_addr + (4 * word)) v
