(* Discrete-event execution engine.

   Each simulated core runs an ordinary OCaml function written against the
   runtime API.  Timing is cooperative: whenever simulated work costs
   cycles, the task performs a [Tick] effect; the scheduler advances
   that core's virtual clock and always resumes the task with the smallest
   clock next, so cores interleave exactly as their timing dictates.
   Besides tasks, the event queue carries timed closures used by the NoC
   to deliver remote writes at their arrival time; each is a function of
   one [int] ([at_indexed]), and [at] wraps a plain closure into one.

   The simulation is fully deterministic: ties in time are broken by
   insertion sequence.

   Scheduling state lives in a preallocated integer-indexed arena with a
   free list: a pending entry is an index into parallel arrays
   (time / seq / kind / payload), the wake-wheel's slots are intrusive
   int chains through [a_next], and the far-future overflow heap orders
   bare indices.  Steady-state scheduling therefore allocates nothing —
   the only per-suspension allocations left are the effect machinery's
   own (handler closure and continuation).  Freed slots are reset to
   dummies so a popped entry's task or closure is never kept live by the
   arena (the seed's heap leaked exactly that way).

   Tasks parked in a pure poll ([poll_wait]) are grouped: waiters due at
   the same time with the same quantum share one [k_wait] entry, a gang,
   so a run of failed re-checks costs one pop and one splice instead of
   a pop and a push per waiter.  A gang also caches what its last full
   re-check learnt: the [enable] epoch it ran at and the earliest cycle
   any failed member can be ready.  Until [enable] is called again or
   that cycle comes, the gang is dormant and a wake does constant work —
   it burns its members' seqs and re-parks the whole chain one quantum
   later, exactly where the member-by-member re-check would have put it,
   so the schedule is unchanged.  The members' stall charges and clocks
   fall behind meanwhile and are settled lazily: before a member's
   [ready] runs, and for every parked member when an exception leaves
   [run]. *)

type _ Effect.t += Tick : unit Effect.t
(* Constant constructor on purpose: performing it allocates nothing; the
   cycle count travels through [tick_n] below. *)

type _ Effect.t += Wait : unit Effect.t
(* Suspension of a pure polling loop ([poll_wait]): the [ready] closure,
   quantum and stall category travel through the [wait_*] fields below.
   The scheduler re-evaluates [ready] itself on each wake that can
   succeed and only resumes the fiber once it holds, so a failed poll
   costs a step through a gang (below) instead of a fiber round trip. *)

exception Watchdog of int
(* raised when a task exceeds [Config.max_cycles] — livelock guard *)

exception Deadlock of string

exception Power_cut of int
(* raised out of [run] when a scheduled power failure fires: every tile
   dies at that cycle and every non-durable byte is gone.  Carried cycle
   = the cut time.  Raised by the machine's cut closure, not here. *)

type task_state =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

type task = { core : int; mutable time : int; seq : int; mutable state : task_state }

let dummy_task = { core = -1; time = 0; seq = -1; state = Finished }
let dummy_ifn : int -> unit = fun _ -> ()
let dummy_ready : unit -> int = fun () -> max_int

(* A task parked in [poll_wait].  A gang is an intrusive FIFO of these
   through [next]; every member is due at the gang entry's time and
   polls with its quantum.  A member's [task.time] and stall charge may
   lag the gang's time (see [settle]). *)
type waiter = {
  task : task;
  ready : unit -> int;
  cat : Stats.category;
  mutable next : waiter;  (* [no_waiter] ends the gang *)
}

let rec no_waiter =
  { task = dummy_task; ready = dummy_ready; cat = Stats.Busy;
    next = no_waiter }

(* Arena entry kinds. *)
let k_free = 0
let k_task = 1
let k_indexed = 2
let k_wait = 3

let wheel_window = 2048 (* power of two: slot index is [time land mask] *)
let wheel_mask = wheel_window - 1

(* Occupancy bitmap: 32 slots per word, so the word / bit split is a
   shift and a mask — no division by a 63-slot odd radix on the pop
   path, which runs once per scheduled event. *)
let occ_bits = 32
let occ_shift = 5
let occ_bmask = occ_bits - 1
let occ_words = wheel_window / occ_bits

type t = {
  config : Config.t;
  stats : Stats.t;
  probe : Probe.t;
  (* entry arena (parallel arrays + free list) *)
  mutable a_time : int array;
  mutable a_seq : int array;
  mutable a_next : int array;          (* slot chain / free-list link *)
  mutable a_kind : int array;
  mutable a_task : task array;
  mutable a_ifn : (int -> unit) array;
  mutable a_arg : int array;           (* indexed arg / gang quantum *)
  mutable a_whead : waiter array;      (* gang members, first and last *)
  mutable a_wtail : waiter array;
  mutable a_epoch : int array;         (* gang's last full scan, -1 = none *)
  mutable a_ready : int array;         (* earliest [ready] it found *)
  mutable a_count : int array;         (* gang members *)
  mutable a_free : int;                (* free-list head, -1 = grow *)
  (* wake-wheel: per-cycle slots as intrusive chains, occupancy bitmap *)
  wheel_head : int array;
  wheel_tail : int array;
  occ : int array;                     (* [occ_bits] slots per word *)
  mutable wheel_count : int;
  (* far-future overflow: binary min-heap of arena indices on (time, seq) *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable cursor : int;       (* wheel origin: no pending entry is earlier *)
  mutable peek : int;         (* earliest pending time; -1 = unknown *)
  mutable current : task;     (* dummy_task = none *)
  mutable next_seq : int;
  mutable tick_n : int;       (* cycles of the Tick being performed *)
  mutable wait_ready : unit -> int;   (* parameters of the Wait being *)
  mutable wait_cat : Stats.category;  (* performed *)
  mutable wait_quantum : int;
  mutable epoch : int;        (* bumped by [enable] *)
  mutable global_time : int;  (* time of the entry being processed *)
  mutable tasks_live : int;
}

let initial_arena = 256

let create (config : Config.t) =
  let a_next = Array.init initial_arena (fun i -> i + 1) in
  a_next.(initial_arena - 1) <- -1;
  {
    config;
    stats = Stats.create config.cores;
    probe = Probe.create ();
    a_time = Array.make initial_arena 0;
    a_seq = Array.make initial_arena 0;
    a_next;
    a_kind = Array.make initial_arena k_free;
    a_task = Array.make initial_arena dummy_task;
    a_ifn = Array.make initial_arena dummy_ifn;
    a_arg = Array.make initial_arena 0;
    a_whead = Array.make initial_arena no_waiter;
    a_wtail = Array.make initial_arena no_waiter;
    a_epoch = Array.make initial_arena (-1);
    a_ready = Array.make initial_arena 0;
    a_count = Array.make initial_arena 0;
    a_free = 0;
    wheel_head = Array.make wheel_window (-1);
    wheel_tail = Array.make wheel_window (-1);
    occ = Array.make occ_words 0;
    wheel_count = 0;
    heap = Array.make 64 (-1);
    heap_n = 0;
    cursor = 0;
    peek = -1;
    current = dummy_task;
    next_seq = 0;
    tick_n = 0;
    wait_ready = dummy_ready;
    wait_cat = Stats.Busy;
    wait_quantum = 0;
    epoch = 0;
    global_time = 0;
    tasks_live = 0;
  }

(* ---------------- arena ---------------- *)

let grow_arena t =
  let n = Array.length t.a_time in
  let n' = 2 * n in
  let copy dummy a =
    let a' = Array.make n' dummy in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.a_time <- copy 0 t.a_time;
  t.a_seq <- copy 0 t.a_seq;
  t.a_kind <- copy k_free t.a_kind;
  t.a_task <- copy dummy_task t.a_task;
  t.a_ifn <- copy dummy_ifn t.a_ifn;
  t.a_arg <- copy 0 t.a_arg;
  t.a_whead <- copy no_waiter t.a_whead;
  t.a_wtail <- copy no_waiter t.a_wtail;
  t.a_epoch <- copy (-1) t.a_epoch;
  t.a_ready <- copy 0 t.a_ready;
  t.a_count <- copy 0 t.a_count;
  let nx = Array.make n' (-1) in
  Array.blit t.a_next 0 nx 0 n;
  for i = n to n' - 2 do
    nx.(i) <- i + 1
  done;
  t.a_next <- nx;
  t.a_free <- n

let alloc_slot t ~time ~seq ~kind =
  if t.a_free = -1 then grow_arena t;
  let i = t.a_free in
  t.a_free <- t.a_next.(i);
  t.a_time.(i) <- time;
  t.a_seq.(i) <- seq;
  t.a_kind.(i) <- kind;
  i

(* Reset the slot to dummies before recycling it: nothing a popped entry
   captured (task, closure) stays reachable through the arena. *)
let free_slot t i =
  t.a_kind.(i) <- k_free;
  t.a_task.(i) <- dummy_task;
  t.a_ifn.(i) <- dummy_ifn;
  t.a_whead.(i) <- no_waiter;
  t.a_wtail.(i) <- no_waiter;
  t.a_next.(i) <- t.a_free;
  t.a_free <- i

(* ---------------- overflow heap (indices, keyed on time then seq) ----- *)

let[@inline] heap_less t i j =
  let ti = t.a_time.(i) and tj = t.a_time.(j) in
  ti < tj || (ti = tj && t.a_seq.(i) < t.a_seq.(j))

let heap_push t x =
  if t.heap_n = Array.length t.heap then begin
    let a' = Array.make (2 * t.heap_n) (-1) in
    Array.blit t.heap 0 a' 0 t.heap_n;
    t.heap <- a'
  end;
  let a = t.heap in
  let i = ref t.heap_n in
  t.heap_n <- t.heap_n + 1;
  a.(!i) <- x;
  while !i > 0 && heap_less t a.(!i) a.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = a.(p) in
    a.(p) <- a.(!i);
    a.(!i) <- tmp;
    i := p
  done

let heap_pop t =
  assert (t.heap_n > 0);
  let a = t.heap in
  let top = a.(0) in
  t.heap_n <- t.heap_n - 1;
  a.(0) <- a.(t.heap_n);
  a.(t.heap_n) <- -1;  (* clear the vacated slot — no stale index *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_n && heap_less t a.(l) a.(!smallest) then smallest := l;
    if r < t.heap_n && heap_less t a.(r) a.(!smallest) then smallest := r;
    if !smallest <> !i then begin
      let tmp = a.(!smallest) in
      a.(!smallest) <- a.(!i);
      a.(!i) <- tmp;
      i := !smallest
    end
    else continue := false
  done;
  top

(* ---------------- wake-wheel ---------------- *)

(* Indexed wake-wheel: entries due within a [wheel_window]-cycle horizon
   live in per-cycle slots indexed by resume time; entries beyond the
   horizon wait in the overflow heap.  Simulated time is monotonic
   (nothing is ever scheduled in the past), so within the horizon every
   slot holds at most one distinct timestamp and a slot's FIFO order
   equals creation-sequence order — popping the next occupied slot
   reproduces the heap's exact (time, seq) order while making push and
   pop O(1) amortized.  An occupancy bitmap lets the pop scan skip 63
   empty slots per word. *)

let wheel_add t slot i =
  t.a_next.(i) <- -1;
  let tail = t.wheel_tail.(slot) in
  if tail = -1 then t.wheel_head.(slot) <- i else t.a_next.(tail) <- i;
  t.wheel_tail.(slot) <- i;
  let w = slot lsr occ_shift in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (slot land occ_bmask));
  t.wheel_count <- t.wheel_count + 1

let[@inline] lowest_bit_from word bit =
  (* index of the least significant set bit of [word] at or above [bit],
     or -1 *)
  let w = word land lnot ((1 lsl bit) - 1) in
  if w = 0 then -1
  else begin
    let b = ref 0 and w = ref (w land -w) in
    if !w land 0xFFFF = 0 then begin b := !b + 16; w := !w lsr 16 end;
    if !w land 0xFF = 0 then begin b := !b + 8; w := !w lsr 8 end;
    if !w land 0xF = 0 then begin b := !b + 4; w := !w lsr 4 end;
    if !w land 0x3 = 0 then begin b := !b + 2; w := !w lsr 2 end;
    if !w land 0x1 = 0 then b := !b + 1;
    !b
  end

(* Toplevel rather than local to [next_occupied]: a local recursive
   function capturing [t] is a closure allocated on every call. *)
let rec scan_occ occ word bit laps =
  if word >= occ_words then
    if laps = 0 then scan_occ occ 0 0 1 else assert false
  else
    match lowest_bit_from occ.(word) bit with
    | -1 -> scan_occ occ (word + 1) 0 laps
    | b -> (word lsl occ_shift) + b

(* Next occupied slot at or after [from], scanning the bitmap and
   wrapping once; the caller guarantees [wheel_count > 0]. *)
let next_occupied t ~from =
  scan_occ t.occ (from lsr occ_shift) (from land occ_bmask) 0

let wheel_take t slot =
  let i = t.wheel_head.(slot) in
  let nx = t.a_next.(i) in
  t.wheel_head.(slot) <- nx;
  if nx = -1 then begin
    t.wheel_tail.(slot) <- -1;
    let w = slot lsr occ_shift in
    t.occ.(w) <- t.occ.(w) land lnot (1 lsl (slot land occ_bmask))
  end;
  t.wheel_count <- t.wheel_count - 1;
  i

(* Undo a [wheel_take]: put [i] back at the head of [slot]. *)
let wheel_untake t slot i =
  let head = t.wheel_head.(slot) in
  t.a_next.(i) <- head;
  t.wheel_head.(slot) <- i;
  if head = -1 then begin
    t.wheel_tail.(slot) <- i;
    let w = slot lsr occ_shift in
    t.occ.(w) <- t.occ.(w) lor (1 lsl (slot land occ_bmask))
  end;
  t.wheel_count <- t.wheel_count + 1

(* ---------------- pending-entry queue ---------------- *)

(* Move overflow entries due at or before [horizon] into the wheel.  They
   were created before anything now being pushed, so their sequence numbers
   are smaller and appending them first keeps every slot's FIFO in
   creation order. *)
let migrate t ~horizon =
  while t.heap_n > 0 && t.a_time.(t.heap.(0)) <= horizon do
    let x = heap_pop t in
    wheel_add t (t.a_time.(x) land wheel_mask) x
  done

let push_slot t i =
  let time = t.a_time.(i) in
  if t.peek >= 0 && time < t.peek then t.peek <- time;
  if time < t.cursor + wheel_window then begin
    migrate t ~horizon:time;
    (* time is never in the past (the sim clock is monotonic); clamp the
       slot defensively so a bad caller degrades to a same-cycle wake *)
    wheel_add t (max time t.cursor land wheel_mask) i
  end
  else heap_push t i

let pop_slot t =
  if t.wheel_count = 0 && t.heap_n = 0 then -1
  else begin
    if t.wheel_count = 0 then
      (* jump the cursor across the empty gap to the overflow cohort *)
      t.cursor <- t.a_time.(t.heap.(0));
    migrate t ~horizon:(t.cursor + wheel_window - 1);
    let slot = next_occupied t ~from:(t.cursor land wheel_mask) in
    let i = wheel_take t slot in
    t.cursor <- max t.cursor t.a_time.(i);
    (* all chain entries in a slot share one timestamp (one distinct
       time per slot within the horizon), so a non-empty remainder pins
       the next pending time exactly — no bitmap rescan needed *)
    t.peek <- (if t.wheel_head.(slot) >= 0 then t.a_time.(i) else -1);
    i
  end

(* Earliest pending entry time, [max_int] if none.  Cached between pops:
   pushes keep the cache current, so a run of fast-path consumes (below)
   pays for at most one bitmap scan. *)
let next_pending_time t =
  if t.peek >= 0 then t.peek
  else if t.wheel_count = 0 && t.heap_n = 0 then max_int
  else begin
    let wt =
      if t.wheel_count = 0 then max_int
      else begin
        let cm = t.cursor land wheel_mask in
        let slot = next_occupied t ~from:cm in
        t.cursor + ((slot - cm) land wheel_mask)
      end
    in
    let ht = if t.heap_n = 0 then max_int else t.a_time.(t.heap.(0)) in
    let p = min wt ht in
    t.peek <- p;
    p
  end

(* ---------------- gangs of parked polls ---------------- *)

(* Park the [count] waiters [first .. last] (linked through [next]) at
   [time], behind everything already queued there.  When the tail entry
   of that wheel slot is a gang with the same quantum, the run joins it:
   both would be popped back to back anyway, so the (time, seq) order of
   the re-checks is unchanged.  Otherwise the run becomes a new gang
   entry keyed on [seq], its first member's sequence number.  [epoch]
   and [ready] are the run's cache (see [wake_gang]); a joined gang keeps
   a cache only when both sides are valid at the current epoch. *)
let park t ~time ~seq ~quantum ~epoch ~ready ~count first last =
  let tail = t.wheel_tail.(time land wheel_mask) in
  if tail >= 0 && t.a_time.(tail) = time && t.a_kind.(tail) = k_wait
     && t.a_arg.(tail) = quantum
  then begin
    t.a_wtail.(tail).next <- first;
    t.a_wtail.(tail) <- last;
    t.a_count.(tail) <- t.a_count.(tail) + count;
    if epoch = t.epoch && t.a_epoch.(tail) = epoch then
      t.a_ready.(tail) <- min t.a_ready.(tail) ready
    else t.a_epoch.(tail) <- -1
  end
  else begin
    let i = alloc_slot t ~time ~seq ~kind:k_wait in
    t.a_arg.(i) <- quantum;
    t.a_whead.(i) <- first;
    t.a_wtail.(i) <- last;
    t.a_epoch.(i) <- epoch;
    t.a_ready.(i) <- ready;
    t.a_count.(i) <- count;
    push_slot t i
  end

(* Bring a parked member's clock and stall charge up to its gang's
   [time]: every poll it skipped in a dormant wake failed, and each
   would have charged one quantum and moved the clock by one. *)
let settle t m time =
  let d = time - m.task.time in
  if d > 0 then begin
    Stats.add (Stats.core t.stats m.task.core) m.cat d;
    m.task.time <- time
  end

(* Settle every parked member, so the stall totals an exception leaves
   behind are the plain polling loop's.  A gang whose re-check raised is
   still marked [k_wait]; its members already re-checked stand one
   quantum ahead and are left alone. *)
let settle_parked t =
  for i = 0 to Array.length t.a_kind - 1 do
    if t.a_kind.(i) = k_wait then begin
      let time = t.a_time.(i) in
      let m = ref t.a_whead.(i) in
      while !m != no_waiter do
        settle t !m time;
        m := !m.next
      done
    end
  done

let stats t = t.stats
let probe t = t.probe
let enable t = t.epoch <- t.epoch + 1
let live_tasks t = t.tasks_live

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Spawn a computation on [core], starting at the core's current time (or
   at [start]).  Several tasks may share a core; they interleave at consume
   points, which models cooperative threads on one processor. *)
let spawn ?(start = 0) t ~core f =
  if core < 0 || core >= t.config.cores then
    invalid_arg "Engine.spawn: bad core";
  let task =
    { core; time = max start t.global_time; seq = fresh_seq t;
      state = Not_started f }
  in
  t.tasks_live <- t.tasks_live + 1;
  if Probe.active t.probe then
    Probe.emit t.probe ~time:task.time (Probe.Task { core; op = Probe.Spawn });
  let i = alloc_slot t ~time:task.time ~seq:task.seq ~kind:k_task in
  t.a_task.(i) <- task;
  push_slot t i

(* Schedule [fn arg] at absolute [time].  A preallocated [fn] makes
   this allocation-free: the per-event state travels as its [int]
   argument through the arena. *)
let at_indexed t ~time fn arg =
  let i = alloc_slot t ~time ~seq:(fresh_seq t) ~kind:k_indexed in
  t.a_ifn.(i) <- fn;
  t.a_arg.(i) <- arg;
  push_slot t i

(* Schedule [f] to run at absolute [time]. *)
let at t ~time f = at_indexed t ~time (fun _ -> f ()) 0

let current_task t =
  let task = t.current in
  if task == dummy_task then
    failwith "Engine: no task running (call from within spawn)"
  else task

let core_id t = (current_task t).core
let now t = (current_task t).time

(* Advance [task]'s clock by [n] cycles.  Fast path: when the advanced
   task would be popped again immediately — nothing else is pending
   strictly before its new time, and the watchdog is not tripping — the
   suspend/resume round trip through the effect handler is skipped
   entirely and the clock simply moves.  The sequence number the
   suspension would have taken is still burned, so every later entry
   gets exactly the seq it would have had; since nothing else could have
   run in the skipped window, the schedule is bit-identical. *)
let advance t task n =
  let nt = task.time + n in
  if nt <= t.config.max_cycles && nt < next_pending_time t then begin
    task.time <- nt;
    ignore (fresh_seq t);
    t.global_time <- nt
  end
  else begin
    t.tick_n <- n;
    Effect.perform Tick
  end

(* Advance the current core's clock by [n] cycles, attributed to [cat]. *)
let consume t cat n =
  if n < 0 then invalid_arg "Engine.consume: negative cycles";
  if n > 0 then begin
    let task = current_task t in
    Stats.add (Stats.core t.stats task.core) cat n;
    advance t task n
  end

(* Advance the clock without statistics (used by pure waiting). *)
let idle t n = if n > 0 then advance t (current_task t) n

(* Pure polling loop, behaviourally identical to

     [while now t < ready () do consume t cat quantum done]

   for a [ready] that only reads simulation state (no memory accesses,
   no cycle consumption, no mutation) — the lock-grant and
   reader-admission waits.  Each failed poll burns the seq, adds the
   stall cycles and advances the clock exactly like the consume above
   would; the difference is purely mechanical: once the task suspends,
   it is parked in a gang, which the scheduler re-checks from the run
   loop — skipping the per-member work while the gang is dormant — and
   resumes the fiber only once [ready] holds, so a failed poll costs at
   most one queue pop/push instead of a fiber suspend/resume round trip.
   The evaluation points in the global (time, seq) order — and hence
   the state each evaluation sees — are a subset of the plain loop's,
   and the skipped ones are those that cannot succeed. *)
let poll_wait t ~cat ~quantum ~ready =
  if quantum <= 0 then invalid_arg "Engine.poll_wait: quantum <= 0";
  let task = current_task t in
  let continue = ref true in
  while !continue && task.time < ready () do
    (* the fast path of [advance], inlined around the [ready] re-check *)
    Stats.add (Stats.core t.stats task.core) cat quantum;
    let nt = task.time + quantum in
    if nt <= t.config.max_cycles && nt < next_pending_time t then begin
      task.time <- nt;
      ignore (fresh_seq t);
      t.global_time <- nt
    end
    else begin
      t.wait_ready <- ready;
      t.wait_cat <- cat;
      t.wait_quantum <- quantum;
      Effect.perform Wait;
      (* resumed only once the scheduler saw [ready] hold *)
      continue := false
    end
  done

(* The per-effect handler closures are built once per task (not per
   perform): matching on the effect constructor refines the answer type
   to [unit], so the preallocated [Some f] is returned as-is and a
   suspension allocates nothing beyond the runtime's continuation. *)
let handler t task =
  let on_tick =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        task.time <- task.time + t.tick_n;
        if task.time > t.config.max_cycles then raise (Watchdog task.time);
        task.state <- Suspended k;
        let i =
          alloc_slot t ~time:task.time ~seq:(fresh_seq t) ~kind:k_task
        in
        t.a_task.(i) <- task;
        push_slot t i)
  in
  let on_wait =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        (* the failed poll's stall was already counted and its watchdog
           bound checked by [poll_wait] *)
        task.time <- task.time + t.wait_quantum;
        if task.time > t.config.max_cycles then raise (Watchdog task.time);
        task.state <- Suspended k;
        let w =
          { task; ready = t.wait_ready; cat = t.wait_cat; next = no_waiter }
        in
        t.wait_ready <- dummy_ready;
        park t ~time:task.time ~seq:(fresh_seq t) ~quantum:t.wait_quantum
          ~epoch:(-1) ~ready:max_int ~count:1 w w)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        task.state <- Finished;
        t.tasks_live <- t.tasks_live - 1;
        if Probe.active t.probe then
          Probe.emit t.probe ~time:task.time
            (Probe.Task { core = task.core; op = Probe.Finish }));
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Tick -> on_tick
        | Wait -> on_wait
        | _ -> None);
  }

(* A gang's turn.  A dormant gang — no [enable] since its last full
   re-check, and [time] still before the earliest cycle that re-check
   found any member ready — cannot release anyone: every member would
   fail, burn one seq and move one quantum on, so the whole chain moves
   at once and the stall charges are left to [settle].  The watchdog
   cycle is taken by a full re-check, which charges exactly what the
   member-by-member loop did before raising.

   Otherwise the members are re-checked in order, each settled and with
   its task installed as current.  Every failed member is charged its
   stall and burns one seq, exactly as its own pop and push would; the
   failed prefix is then re-parked at [time + quantum] in one splice,
   caching the current epoch and the earliest [ready] it saw.  The first
   member whose [ready] has come resumes its fiber, and the members
   behind it go back to the head of this slot, uncached, so they are
   still re-checked before anything queued after the gang — including
   whatever the resumed fiber schedules at this same cycle. *)
let wake_gang t i =
  let time = t.a_time.(i) and quantum = t.a_arg.(i) in
  let nt = time + quantum in
  let seq = t.next_seq in
  let first = t.a_whead.(i) and count = t.a_count.(i) in
  if t.a_epoch.(i) = t.epoch && time < t.a_ready.(i)
     && nt <= t.config.max_cycles
  then begin
    let last = t.a_wtail.(i) and ready = t.a_ready.(i) in
    t.next_seq <- seq + count;
    free_slot t i;
    park t ~time:nt ~seq ~quantum ~epoch:t.epoch ~ready ~count first last
  end
  else begin
    let w = ref first and last = ref no_waiter in
    let failed = ref 0 and soonest = ref max_int and r = ref 0 in
    while
      !w != no_waiter
      && begin
           let m = !w in
           settle t m time;
           t.current <- m.task;
           r := m.ready ();
           time < !r
         end
    do
      let m = !w in
      if !r < !soonest then soonest := !r;
      Stats.add (Stats.core t.stats m.task.core) m.cat quantum;
      if nt > t.config.max_cycles then raise (Watchdog nt);
      m.task.time <- nt;
      ignore (fresh_seq t);
      incr failed;
      last := m;
      w := m.next
    done;
    let winner = !w in
    if winner != no_waiter && winner.next != no_waiter then begin
      t.a_whead.(i) <- winner.next;
      t.a_epoch.(i) <- -1;
      t.a_count.(i) <- count - !failed - 1;
      wheel_untake t (time land wheel_mask) i;
      t.peek <- time
    end
    else free_slot t i;
    if !last != no_waiter then begin
      !last.next <- no_waiter;
      park t ~time:nt ~seq ~quantum ~epoch:t.epoch ~ready:!soonest
        ~count:!failed first !last
    end;
    if winner != no_waiter then begin
      let task = winner.task in
      match task.state with
      | Suspended k ->
          task.state <- Finished;
          Effect.Deep.continue k ()
      | _ -> assert false
    end;
    t.current <- dummy_task
  end

(* Run until every task has finished and every event has fired.  Raises
   [Watchdog] if a task spins past the configured horizon; raises
   [Deadlock] if tasks remain but nothing is runnable (cannot happen with
   pure time-based waiting, but guards future blocking primitives).  Any
   exception leaving [run] first settles every parked waiter's stall. *)
let run_loop t =
  let continue = ref true in
  while !continue do
    let i = pop_slot t in
    if i < 0 then continue := false
    else begin
      t.global_time <- t.a_time.(i);
      let kind = t.a_kind.(i) in
      if kind = k_task then begin
        let task = t.a_task.(i) in
        free_slot t i;
        t.current <- task;
        (match task.state with
        | Not_started f ->
            task.state <- Finished;
            (* state is overwritten by the handler on suspension *)
            Effect.Deep.match_with f () (handler t task)
        | Suspended k ->
            task.state <- Finished;
            Effect.Deep.continue k ()
        | Finished -> ());
        t.current <- dummy_task
      end
      else if kind = k_wait then wake_gang t i
      else begin
        let f = t.a_ifn.(i) and arg = t.a_arg.(i) in
        free_slot t i;
        f arg
      end
    end
  done;
  if t.tasks_live > 0 then
    raise (Deadlock (Printf.sprintf "%d tasks never finished" t.tasks_live))

let run t =
  try run_loop t
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    settle_parked t;
    Printexc.raise_with_backtrace e bt

let wall_time t = t.global_time
