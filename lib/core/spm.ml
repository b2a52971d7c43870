(* Scratch-pad memory back-end (Table II, fourth column) — the motion
   estimation setup of Section VI-C.

   The canonical version of every shared object lives in SDRAM (accessed
   uncached here: the SPM holds the working copy, so the D-cache adds
   nothing but interference).  Entering a scope stages the object into the
   tile's scratch-pad; all reads and writes inside the scope hit the
   scratch-pad at local-memory speed; leaving the scope copies the data
   back (exclusive access) or discards it (read-only access):

     entry_x   lock; copy SDRAM → SPM;
     exit_x    copy SPM → SDRAM; free the SPM space; unlock;
     entry_ro  copy SDRAM → SPM, locking around the copy if the object is
               larger than an atomic word;
     exit_ro   discard the SPM copy;
     flush     copy SPM → SDRAM while staying in the scope;
     fence     compiler barrier only.

   The paper notes the dual-address problem (main memory vs SPM address);
   here the [read_u32]/[write_u32] indirection plays the role of the C++
   ScopeRO/ScopeX cast operators of Fig. 10 and hides it completely. *)

open Pmc_sim

type scope = { spm_off : int; mark : int }

type t = {
  m : Machine.t;
  (* per-core map: object id -> active SPM staging *)
  staged : (int, scope) Hashtbl.t array;
  (* SPM stack position when no scope is active, for bulk reclamation *)
  base_sp : int array;
}

let name = "spm"

let create m =
  let cores = (Machine.config m).Config.cores in
  {
    m;
    staged = Array.init cores (fun _ -> Hashtbl.create 8);
    base_sp = Array.init cores (fun core -> Machine.spm_mark m ~core);
  }

let machine t = t.m

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  o.Shared.sdram_addr <- Machine.alloc_uncached t.m ~bytes;
  o

(* Burst copy between SDRAM and the SPM.  With [Config.batched] the
   DMA engine streams the whole object in one burst: a single SDRAM
   latency plus a per-word streaming cost.  With batching off, every word
   is a separate port access that arbitrates (and possibly queues) on its
   own — the pre-batching model the equivalence tests compare against. *)
let copy_cycles t ~words =
  let cfg = Machine.config t.m in
  if cfg.Config.batched then cfg.Config.sdram_word_cycles + (words * 2)
  else begin
    let c = ref 0 in
    for _ = 1 to words do
      c := !c + Machine.sdram_word_wait t.m + cfg.Config.sdram_word_cycles
    done;
    !c
  end

let copy_in t (o : Shared.t) ~spm_off =
  let core = Machine.core_id t.m in
  let words = Shared.words o in
  Machine.blit_sdram_to_local t.m ~core ~sdram:o.Shared.sdram_addr
    ~off:spm_off ~len:(4 * words);
  Engine.consume (Machine.engine t.m) Stats.Shared_read_stall
    (copy_cycles t ~words)

let copy_out t (o : Shared.t) ~spm_off =
  let core = Machine.core_id t.m in
  let words = Shared.words o in
  Machine.blit_local_to_sdram t.m ~core ~off:spm_off
    ~sdram:o.Shared.sdram_addr ~len:(4 * words);
  Engine.consume (Machine.engine t.m) Stats.Flush_overhead
    (copy_cycles t ~words)

let scope_error t (o : Shared.t) ~op =
  Pmc_error.raise_error ~core:(Machine.core_id t.m) ~obj:o.Shared.name ~op
    "no active SPM scope for this object on this core"

let stage t (o : Shared.t) =
  let core = Machine.core_id t.m in
  let mark = Machine.spm_mark t.m ~core in
  let spm_off = Machine.spm_alloc t.m ~core ~bytes:o.Shared.size in
  Hashtbl.replace t.staged.(core) o.Shared.id { spm_off; mark };
  copy_in t o ~spm_off;
  spm_off

(* Scratch-pad space is stack-allocated.  Scopes normally exit in LIFO
   order (the RAII style of Fig. 10); a non-LIFO exit leaves a hole that is
   reclaimed when the core's last scope closes. *)
let unstage t (o : Shared.t) =
  let core = Machine.core_id t.m in
  match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | None -> scope_error t o ~op:"Spm.exit"
  | Some s ->
      Hashtbl.remove t.staged.(core) o.Shared.id;
      let top = (s.spm_off + o.Shared.size + 3) / 4 * 4 in
      if Machine.spm_mark t.m ~core = top then
        Machine.spm_release t.m ~core s.mark;
      if Hashtbl.length t.staged.(core) = 0 then
        Machine.spm_release t.m ~core t.base_sp.(core);
      s

let entry_x t (o : Shared.t) =
  Pmc_lock.Dlock.acquire o.Shared.lock;
  ignore (stage t o)

let exit_x t (o : Shared.t) =
  let core = Machine.core_id t.m in
  (match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | None -> scope_error t o ~op:"Spm.exit_x"
  | Some s -> copy_out t o ~spm_off:s.spm_off);
  ignore (unstage t o);
  Pmc_lock.Dlock.release o.Shared.lock

let entry_ro t (o : Shared.t) =
  if Shared.is_atomic_sized o then ignore (stage t o)
  else begin
    (* lock only around the copy: concurrent writers cannot tear it *)
    Pmc_lock.Dlock.acquire_ro o.Shared.lock;
    ignore (stage t o);
    Pmc_lock.Dlock.release_ro o.Shared.lock
  end

let exit_ro t (o : Shared.t) =
  (* discard the local copy *)
  ignore (unstage t o)

let fence _t = ()

let flush t (o : Shared.t) =
  let core = Machine.core_id t.m in
  match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | None -> scope_error t o ~op:"Spm.flush"
  | Some s -> copy_out t o ~spm_off:s.spm_off

let spm_addr t (o : Shared.t) word =
  let core = Machine.core_id t.m in
  match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | Some s ->
      Machine.local_addr t.m ~tile:core ~off:(s.spm_off + (4 * word))
  | None -> scope_error t o ~op:"Spm.access"

let read_u32_int t (o : Shared.t) word =
  Machine.load_u32_int t.m ~shared:true (spm_addr t o word)

let write_u32_int t (o : Shared.t) word v =
  Machine.store_u32_int t.m ~shared:true (spm_addr t o word) v

let read_u8 t (o : Shared.t) i =
  let core = Machine.core_id t.m in
  match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | Some s ->
      Machine.load_u8 t.m ~shared:true
        (Machine.local_addr t.m ~tile:core ~off:(s.spm_off + i))
  | None -> scope_error t o ~op:"Spm.access"

let write_u8 t (o : Shared.t) i v =
  let core = Machine.core_id t.m in
  match Hashtbl.find_opt t.staged.(core) o.Shared.id with
  | Some s ->
      Machine.store_u8 t.m ~shared:true
        (Machine.local_addr t.m ~tile:core ~off:(s.spm_off + i))
        v
  | None -> scope_error t o ~op:"Spm.access"

let peek_u32 t (o : Shared.t) word =
  Machine.peek_u32 t.m (o.Shared.sdram_addr + (4 * word))

let poke_u32 t (o : Shared.t) word v =
  Machine.poke_u32 t.m (o.Shared.sdram_addr + (4 * word)) v
