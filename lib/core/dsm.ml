(* Distributed-shared-memory back-end (Table II, third column).

   Every shared object is replicated at a common offset in each tile's
   local memory; cores only ever read and write their own replica, which is
   fast and does not disturb other tiles.  Coherence is managed in
   software over the *write-only* NoC:

     entry_x   acquire the lock; if another tile produced the newest
               version, that version is written into the acquirer's local
               memory (the handover of the lazy release) — the acquirer
               stalls for the NoC transfer;
     exit_x    lazy: just record this tile as the owner of the newest
               version and release;
     entry_ro  atomic-sized objects: nothing (the replica is kept fresh by
               flushes); larger objects take the lock and pull the newest
               version to avoid torn reads;
     exit_ro   unlock if entry_ro locked;
     flush     push the local replica to every other tile's local memory
               (posted writes — best effort, arrival is asynchronous);
     fence     compiler barrier; inter-tile ordering is preserved by the
               per-link FIFO of the NoC.

   With [Config.batched] the back-end version-tracks replicas
   (TreadMarks-style lazy release consistency):

     - an acquire skips the pull when the local replica already holds the
       newest published version (and the bytes have actually arrived);
     - an exclusive scope that never wrote does not claim ownership, so a
       chain of readers keeps pulling from the real producer instead of
       from each other;
     - writes record a dirty byte range, and a flush pushes only that
       range to tiles whose replicas are known to be otherwise current,
       falling back to the whole object for stale tiles.

   All of this changes only who transfers what and when the acquirer
   stalls — the content every core observes at every annotation is the
   same as in the unbatched model; the replay-equivalence tests check
   exactly that.

   Degradation under faults (the chaos plane): replication rides on the
   resilient NoC transport, which retransmits losses and keeps per-link
   FIFO order, so the protocol above stays sound unchanged.  Once a link
   is declared dead ([Machine.link_dead]) the back-end stops trusting
   narrow deltas to that peer — it is demoted to the full-object group
   on every flush — and pulls across a dead link are charged the SDRAM
   relay cost instead of the NoC latency.  Data always still arrives;
   only the cost model degrades. *)

open Pmc_sim

type t = { m : Machine.t }

let name = "dsm"

let create m = { m }
let machine t = t.m

let alloc t ~name ~bytes =
  let lock = Pmc_lock.Dlock.create t.m in
  let o = Shared.make ~name ~size:bytes ~lock in
  o.Shared.dsm_off <- Machine.alloc_dsm t.m ~bytes;
  Shared.dsm_track o ~cores:(Machine.config t.m).Config.cores;
  o

let replica_addr t (o : Shared.t) ~tile =
  Machine.local_addr t.m ~tile ~off:o.Shared.dsm_off

(* Bring the newest version (owned by [o.last_writer]) into [core]'s
   replica, charging the NoC transfer to the acquirer.  Under
   [Config.batched] the transfer is skipped when the local replica is
   already at the newest version and its bytes have landed; and when the
   acquire just received the lock over the NoC ([handover]), the newest
   version rides in the same grant burst — the releaser's replica is
   always current at release time — so the acquirer pays only the burst's
   payload extension instead of a separate transfer. *)
let pull_version ?(handover = false) t (o : Shared.t) =
  let core = Machine.core_id t.m in
  let cfg = Machine.config t.m in
  let lazy_v = cfg.Config.batched in
  let current =
    lazy_v
    && Array.length o.Shared.seen > 0
    && o.Shared.seen.(core) = o.Shared.version
    && Machine.now t.m >= o.Shared.seen_at.(core)
  in
  if not current then
    match o.Shared.last_writer with
    | -1 -> ()
    | w when w = core -> ()
    | w ->
        let words = Shared.words o in
        for i = 0 to words - 1 do
          let v = Machine.peek_u32 t.m (replica_addr t o ~tile:w + (4 * i)) in
          Machine.poke_u32 t.m (replica_addr t o ~tile:core + (4 * i)) v
        done;
        let cost =
          (* a dead (src=w, dst=core) link degrades the pull to the
             SDRAM relay: the producer stages the version through shared
             memory and the acquirer reads it back *)
          if Machine.link_dead t.m ~src:w ~dst:core then
            Config.relay_latency cfg ~words
          else if lazy_v && handover then cfg.Config.noc_word_cycles * words
          else Config.noc_latency cfg ~src:w ~dst:core ~words
        in
        Engine.consume (Machine.engine t.m) Stats.Shared_read_stall cost;
        if lazy_v then begin
          o.Shared.seen.(core) <- o.Shared.version;
          o.Shared.seen_at.(core) <- Machine.now t.m;
          (* the pull overwrote any unpublished local bytes *)
          if o.Shared.dirty_core = core then Shared.clear_dirty o
        end

let entry_x t (o : Shared.t) =
  Pmc_lock.Dlock.acquire o.Shared.lock;
  let handover = Pmc_lock.Dlock.last_transfer_from o.Shared.lock >= 0 in
  pull_version ~handover t o

let exit_x t (o : Shared.t) =
  (* Release consistency: any flush posted inside the scope must have
     landed before the release is observable, otherwise a reader ordered
     after this release (even one on the lock-free atomic-sized path)
     could still see pre-flush bytes in its replica.  The drain is a
     no-op when the scope posted nothing. *)
  Machine.noc_drain t.m;
  (* lazy release: the data stays local until the next acquirer pulls it *)
  let core = Machine.core_id t.m in
  let cfg = Machine.config t.m in
  if cfg.Config.batched then begin
    if o.Shared.dirty_core = core then begin
      o.Shared.version <- o.Shared.version + 1;
      o.Shared.last_writer <- core;
      o.Shared.seen.(core) <- o.Shared.version;
      o.Shared.seen_at.(core) <- Machine.now t.m;
      Shared.clear_dirty o
    end
    (* a scope that never wrote leaves ownership with the real producer *)
  end
  else o.Shared.last_writer <- core;
  Pmc_lock.Dlock.release o.Shared.lock

let entry_ro t (o : Shared.t) =
  if not (Shared.is_atomic_sized o) then begin
    Pmc_lock.Dlock.acquire_ro o.Shared.lock;
    pull_version t o
  end

let exit_ro _t (o : Shared.t) =
  if not (Shared.is_atomic_sized o) then
    Pmc_lock.Dlock.release_ro o.Shared.lock

let fence _t = ()

let flush t (o : Shared.t) =
  let core = Machine.core_id t.m in
  let cfg = Machine.config t.m in
  let off = o.Shared.dsm_off in
  let others =
    List.filter (fun i -> i <> core) (List.init cfg.Config.cores Fun.id)
  in
  if not cfg.Config.batched then begin
    ignore
      (Machine.noc_push_multi t.m ~dsts:others ~src_off:off ~dst_off:off
         ~len:o.Shared.size);
    o.Shared.last_writer <- core
  end
  else begin
    let now = Machine.now t.m in
    (* A destination whose replica is known to hold the same base version
       as the flusher's only needs the dirty range; anyone else gets the
       whole object.  [seen_at] guards against in-flight deliveries. *)
    let base = o.Shared.seen.(core) in
    let clean = o.Shared.dirty_core = -1 in
    let narrow =
      base >= 0
      && now >= o.Shared.seen_at.(core)
      && (clean || o.Shared.dirty_core = core)
    in
    let fast, slow =
      (* a peer behind a dead link is never trusted with a narrow delta:
         its replica state is only reachable through the degraded relay,
         so it conservatively gets the whole object *)
      if narrow then
        List.partition
          (fun d ->
            o.Shared.seen.(d) = base
            && now >= o.Shared.seen_at.(d)
            && not (Machine.link_dead t.m ~src:core ~dst:d))
          others
      else ([], others)
    in
    let arr_fast =
      if fast = [] || clean then now
      else
        let lo = o.Shared.dirty_lo and hi = o.Shared.dirty_hi in
        Machine.noc_push_multi t.m ~dsts:fast ~src_off:(off + lo)
          ~dst_off:(off + lo) ~len:(hi - lo)
    in
    let arr_slow =
      if slow = [] then now
      else
        Machine.noc_push_multi t.m ~dsts:slow ~src_off:off ~dst_off:off
          ~len:o.Shared.size
    in
    let newv = o.Shared.version + 1 in
    o.Shared.version <- newv;
    o.Shared.last_writer <- core;
    o.Shared.seen.(core) <- newv;
    o.Shared.seen_at.(core) <- now;
    List.iter
      (fun d ->
        o.Shared.seen.(d) <- newv;
        o.Shared.seen_at.(d) <- arr_fast)
      fast;
    List.iter
      (fun d ->
        o.Shared.seen.(d) <- newv;
        o.Shared.seen_at.(d) <- arr_slow)
      slow;
    Shared.clear_dirty o
  end

let read t (o : Shared.t) ~width off =
  let core = Machine.core_id t.m in
  Machine.load t.m ~shared:true ~width (replica_addr t o ~tile:core + off)

let write t (o : Shared.t) ~width off v =
  let core = Machine.core_id t.m in
  Shared.mark_dirty o ~core ~lo:off ~hi:(off + width);
  Machine.store t.m ~shared:true ~width (replica_addr t o ~tile:core + off) v

(* The canonical version lives in the last writer's replica (tile 0 before
   any write). *)
let peek_u32 t (o : Shared.t) word =
  let tile = if o.Shared.last_writer >= 0 then o.Shared.last_writer else 0 in
  Machine.peek_u32 t.m (replica_addr t o ~tile + (4 * word))

(* Initialization must reach every replica: there is no backing store. *)
let poke_u32 t (o : Shared.t) word v =
  let cfg = Machine.config t.m in
  for tile = 0 to cfg.Config.cores - 1 do
    Machine.poke_u32 t.m (replica_addr t o ~tile + (4 * word)) v
  done
