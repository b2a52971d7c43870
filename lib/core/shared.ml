(* Handles for shared objects.

   The PMC annotations operate on whole shared objects of any size
   (Section V-A).  A handle carries the object's identity, its size, the
   lock that implements ≺S for it, and the placement fields each back-end
   fills in at allocation time.

   Objects of at most one machine word (4 bytes on the 32-bit platform)
   are "atomic-sized": reads and writes of them are indivisible, so
   entry_ro does not need to lock them.  The paper states the rule for one
   byte — the only size that is indivisible on every machine — but its own
   FIFO (Fig. 9) polls word-sized pointers without locking, which is sound
   exactly because the platform's bus transfers words atomically.  We
   follow the platform rule and document the substitution in DESIGN.md. *)

type t = {
  id : int;
  name : string;
  size : int;                       (* bytes *)
  lock : Pmc_lock.Dlock.t;
  mutable sdram_addr : int;         (* cached or uncached SDRAM; -1 = none *)
  mutable dsm_off : int;            (* common local-memory offset; -1 = none *)
  mutable last_writer : int;        (* tile owning the newest version; -1 = none *)
  (* DSM version tracking (TreadMarks-style lazy release, used when
     [Config.batched] is on): [version] counts publications of
     the object (exit_x after a write, flush); [seen.(tile)] is the
     version that tile's replica holds, valid from time [seen_at.(tile)]
     (flush deliveries are posted writes that land later); -1 = unknown.
     The arrays stay [||] until a DSM back-end adopts the object. *)
  mutable version : int;
  mutable seen : int array;
  mutable seen_at : int array;
  (* byte range [dirty_lo, dirty_hi) by which [dirty_core]'s replica
     differs from the version it last pulled; -1 = clean *)
  mutable dirty_core : int;
  mutable dirty_lo : int;
  mutable dirty_hi : int;
}

(* Objects of at most [atomic_threshold ()] bytes are treated as atomic
   for entry_ro (no locking).  4 = platform word (the default); 1 = the
   paper's conservative byte rule; 0 = lock on every read-only entry.
   Exposed as a knob for the ablation bench.

   The knob and the id counter are domain-local: each domain of a
   parallel fan-out ([Pmc_par.Pool]) gets an independent copy, so two
   concurrent simulator runs can never cross-contaminate each other's
   handle ids or locking rule. *)
let atomic_threshold_key = Domain.DLS.new_key (fun () -> 4)

let atomic_threshold () = Domain.DLS.get atomic_threshold_key
let set_atomic_threshold n = Domain.DLS.set atomic_threshold_key n

let is_atomic_sized o = o.size <= atomic_threshold ()

let words o = (o.size + 3) / 4

let next_id = Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_id := 0

let make ~name ~size ~lock =
  let next_id = Domain.DLS.get next_id in
  let id = !next_id in
  incr next_id;
  { id; name; size; lock; sdram_addr = -1; dsm_off = -1; last_writer = -1;
    version = 0; seen = [||]; seen_at = [||];
    dirty_core = -1; dirty_lo = 0; dirty_hi = 0 }

(* Adopt the object for DSM version tracking: all replicas start equal
   (version 0), established before the simulation begins. *)
let dsm_track o ~cores =
  o.seen <- Array.make cores 0;
  o.seen_at <- Array.make cores 0

let clear_dirty o =
  o.dirty_core <- -1;
  o.dirty_lo <- 0;
  o.dirty_hi <- 0

(* Record that [core] modified bytes [lo, hi) of its replica.  Two cores
   dirtying the same object concurrently is a data race under PMC; if it
   happens anyway, range tracking surrenders: the displaced core's
   replica version becomes unknown and the new range covers the whole
   object, so the next publication falls back to a full-object push. *)
let mark_dirty o ~core ~lo ~hi =
  if o.dirty_core = -1 then begin
    o.dirty_core <- core;
    o.dirty_lo <- lo;
    o.dirty_hi <- hi
  end
  else if o.dirty_core = core then begin
    o.dirty_lo <- min o.dirty_lo lo;
    o.dirty_hi <- max o.dirty_hi hi
  end
  else begin
    if Array.length o.seen > 0 then o.seen.(o.dirty_core) <- -1;
    o.dirty_core <- core;
    o.dirty_lo <- 0;
    o.dirty_hi <- o.size
  end

let pp ppf o = Fmt.pf ppf "%s#%d[%dB]" o.name o.id o.size
