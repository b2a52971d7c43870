(* Asymmetric distributed lock, modelled after the one the paper's platform
   uses [15]: a waiting core spins only on a flag in its *own* local memory
   (cheap, no interconnect traffic); the handover from the previous holder
   travels over the NoC and costs a transfer latency that depends on the
   hop distance.  Re-acquiring a lock the core released last is almost
   free ("asymmetric": the common uncontended case stays local).

   The lock supports a shared (read-only) mode besides the exclusive one:
   PMC explicitly allows "exclusive access ... alongside read-only access"
   (Section IV-E), and the entry_ro annotation of multi-word objects maps
   to the shared mode.  Readers are admitted when no exclusive holder or
   waiter is present (writers do not starve).

   The lock's bookkeeping lives in host structures; its *timing* — local
   polls, handover latency — is modelled explicitly.  Mutual exclusion is
   exact in simulated time because state changes happen between consume
   points. *)

open Pmc_sim

type t = {
  id : int;
  m : Machine.t;
  mutable owner : int option;           (* exclusive holder *)
  mutable readers : int;                (* shared holders *)
  mutable last_holder : int;
  (* an exclusive grant in flight: (core it is for, arrival time) *)
  mutable pending : (int * int) option;
  queue : int Queue.t;                  (* exclusive waiters *)
  (* tile the lock travelled from on the most recent exclusive acquire,
     -1 if that acquire was local (no handover) *)
  mutable last_transfer_from : int;
}

(* Domain-local so two concurrent runs in a parallel fan-out allocate
   independent, per-domain-deterministic lock ids (they appear in traces
   and replay keys). *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_id := 0

let create (m : Machine.t) : t =
  let next_id = Domain.DLS.get next_id in
  let id = !next_id in
  incr next_id;
  {
    id;
    m;
    owner = None;
    readers = 0;
    last_holder = -1;
    pending = None;
    queue = Queue.create ();
    last_transfer_from = -1;
  }

let transfer_cycles t ~from ~to_ =
  let cfg = Machine.config t.m in
  if from = -1 || from = to_ then 0
  else
    cfg.Config.lock_transfer_cycles
    + (cfg.Config.noc_hop_cycles * Config.hops cfg ~src:from ~dst:to_)

let count_acquire t ~transferred =
  let s = Stats.core (Machine.stats t.m) (Machine.core_id t.m) in
  s.Stats.lock_acquires <- s.Stats.lock_acquires + 1;
  if transferred then s.Stats.lock_transfers <- s.Stats.lock_transfers + 1

let emit t (op : Probe.lock_op) ~transferred =
  let p = Machine.probe t.m in
  if Probe.active p then
    Probe.emit p
      ~time:(Engine.now (Machine.engine t.m))
      (Probe.Lock
         { core = Machine.core_id t.m; lock = t.id; op; transferred })

(* Hand the lock to the next exclusive waiter, if the lock is idle. *)
let try_grant t =
  if
    t.owner = None && t.readers = 0 && t.pending = None
    && not (Queue.is_empty t.queue)
  then begin
    let next = Queue.pop t.queue in
    let now = Engine.now (Machine.engine t.m) in
    let arrival = now + transfer_cycles t ~from:t.last_holder ~to_:next in
    t.pending <- Some (next, max arrival (now + 1))
  end

type outcome = Acquired | Timeout of { waited : int }

(* Withdraw a timed-out waiter: drop it from the FIFO, bounce back any
   grant already in flight to it (the lock returns to idle and travels on
   to the next waiter), and re-run the grant logic so nobody wedges. *)
let withdraw t core =
  let keep = Queue.create () in
  Queue.iter (fun c -> if c <> core then Queue.push c keep) t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue;
  (match t.pending with
  | Some (c, _) when c = core -> t.pending <- None
  | _ -> ());
  try_grant t

(* Take the granted lock (the waiter slow path's epilogue). *)
let take_grant t ~core =
  t.pending <- None;
  t.owner <- Some core;
  let transferred = t.last_holder <> core in
  t.last_transfer_from <- (if transferred then t.last_holder else -1);
  t.last_holder <- core;
  count_acquire t ~transferred;
  emit t Probe.Acquire ~transferred

(* [deadline = None] is the unbounded acquire and must stay cycle-exact
   with the historical behavior (constant-interval local polling — the
   regression benches pin it); a deadline switches the waiter to capped
   exponential backoff and a typed Timeout outcome. *)
let acquire_aux t ~deadline : outcome =
  let core = Machine.core_id t.m in
  let e = Machine.engine t.m in
  let cfg = Machine.config t.m in
  let poll = cfg.Config.lock_local_poll_cycles in
  Engine.consume e Stats.Lock_stall poll;
  (match t.owner with
  | Some c when c = core ->
      Pmc_error.raise_error ~core ~obj:(Printf.sprintf "lock#%d" t.id)
        ~op:"Dlock.acquire" "already held by this core"
  | _ -> ());
  if
    t.owner = None && t.readers = 0 && Queue.is_empty t.queue
    && t.pending = None
  then begin
    (* free and uncontended: claim immediately (state changes are atomic
       between consume points), then pay the handover if the lock last
       lived on another tile *)
    t.owner <- Some core;
    let transferred = t.last_holder <> -1 && t.last_holder <> core in
    let cost = transfer_cycles t ~from:t.last_holder ~to_:core in
    t.last_transfer_from <- (if transferred then t.last_holder else -1);
    t.last_holder <- core;
    count_acquire t ~transferred;
    if cost > 0 then Engine.consume e Stats.Lock_stall cost;
    emit t Probe.Acquire ~transferred;
    Acquired
  end
  else begin
    Queue.push core t.queue;
    let granted () =
      match t.pending with
      | Some (c, arrival) when c = core && Engine.now e >= arrival -> true
      | _ -> false
    in
    match deadline with
    | None ->
        (* the grant check reads only lock bookkeeping and the clock, so
           the scheduler runs the polling loop without waking us; queued
           cores whose polls fall on the same cycle are re-checked
           together, as one gang *)
        Engine.poll_wait e ~cat:Stats.Lock_stall ~quantum:poll
          ~pred:granted;
        take_grant t ~core;
        Acquired
    | Some limit ->
        let start = Engine.now e in
        let backoff = ref poll in
        while (not (granted ())) && Engine.now e < limit do
          let wait = min !backoff (limit - Engine.now e) in
          Engine.consume e Stats.Lock_stall wait;
          backoff := min (!backoff * 2) (poll * 64)
        done;
        if granted () then begin
          take_grant t ~core;
          Acquired
        end
        else begin
          withdraw t core;
          let waited = Engine.now e - start in
          let counts = Fault.counts (Machine.fault t.m) in
          counts.Fault.lock_timeouts <- counts.Fault.lock_timeouts + 1;
          Probe.emit (Machine.probe t.m) ~time:(Engine.now e)
            (Probe.Fault
               (Probe.F_lock_timeout { core; lock = t.id; waited }));
          Timeout { waited }
        end
  end

let acquire t =
  match acquire_aux t ~deadline:None with
  | Acquired -> ()
  | Timeout _ -> assert false

let acquire_timeout t ~timeout =
  if timeout <= 0 then invalid_arg "Dlock.acquire_timeout: timeout <= 0";
  let deadline = Engine.now (Machine.engine t.m) + timeout in
  acquire_aux t ~deadline:(Some deadline)

let release t =
  let core = Machine.core_id t.m in
  let e = Machine.engine t.m in
  let cfg = Machine.config t.m in
  (match t.owner with
  | Some c when c = core -> ()
  | _ ->
      Pmc_error.raise_error ~core ~obj:(Printf.sprintf "lock#%d" t.id)
        ~op:"Dlock.release" "not the holder (owner: %s)"
        (match t.owner with
        | Some c -> "core " ^ string_of_int c
        | None -> "none"));
  Engine.consume e Stats.Lock_stall cfg.Config.lock_local_poll_cycles;
  t.owner <- None;
  emit t Probe.Release ~transferred:false;
  try_grant t

(* Shared (read-only) admission: wait until no exclusive holder, in-flight
   grant or exclusive waiter remains, then join the reader group. *)
let acquire_ro t =
  let e = Machine.engine t.m in
  let cfg = Machine.config t.m in
  let poll = cfg.Config.lock_local_poll_cycles in
  Engine.consume e Stats.Lock_stall poll;
  Engine.poll_wait e ~cat:Stats.Lock_stall ~quantum:poll ~pred:(fun () ->
      t.owner = None && t.pending = None && Queue.is_empty t.queue);
  t.readers <- t.readers + 1;
  emit t Probe.Acquire_ro ~transferred:false

let release_ro t =
  let e = Machine.engine t.m in
  let cfg = Machine.config t.m in
  if t.readers <= 0 then
    Pmc_error.raise_error ~core:(Machine.core_id t.m)
      ~obj:(Printf.sprintf "lock#%d" t.id) ~op:"Dlock.release_ro"
      "no readers hold the lock";
  Engine.consume e Stats.Lock_stall cfg.Config.lock_local_poll_cycles;
  t.readers <- t.readers - 1;
  emit t Probe.Release_ro ~transferred:false;
  try_grant t

let holder t = t.owner
let last_transfer_from t = t.last_transfer_from
let reader_count t = t.readers

let with_lock t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f

let with_lock_ro t f =
  acquire_ro t;
  Fun.protect ~finally:(fun () -> release_ro t) f
