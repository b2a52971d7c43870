(* Operational semantics of the memory models compared in Section IV-E,
   used to enumerate complete outcome sets of litmus programs (Lprog).

   - [Sc]   Sequential Consistency [Lamport 79]: one memory, atomic steps.
   - [Pc]   Processor Consistency, implemented as its best-known
            operational instance: TSO-style per-processor FIFO store
            buffers draining into a single memory.  This realizes both GDO
            (single memory serializes each location) and GPO (the FIFO
            preserves each processor's write order).
   - [Cc]   Cache Consistency: per-location write logs; every observer
            applies each location's log in order, at its own pace.
   - [Slow] Slow Consistency [Hutto & Ahamad 90]: per-process copies;
            updates propagate per (writer, location) in order, with no
            cross-location or cross-writer guarantees.
   - [Pmc]  The paper's model: Slow reads/writes + acquire/release
            transferring the protected value (GDO) + fences inserting
            cross-location markers into the update streams (GPO) + the
            best-effort flush.  Writes issued while holding the location's
            lock stay local until release ("lazy release", Section V-A).

   Each model is a small labelled transition system over one mutable
   state: a move is applied in place, the caller's continuation runs,
   and the move is undone.  [Litmus.enumerate] explores the system
   breadth first over packed keys, so no successor state is ever
   materialized. *)

(* Packed state keys.  Litmus states are a handful of small int arrays
   whose shapes are fixed by the program, so each semantics packs its
   state into a reused byte buffer: one byte per int in [-1, 253]
   (value + 1, so a free lock packs small), escape byte 255 plus a
   native 8-byte word otherwise.  Components of variable shape (store
   buffers, logs, streams, hoist sets) are length-prefixed, which keeps
   the key injective and decodable: [unpack] rebuilds the state from
   it.  A semantics reserves its worst-case key size once per [pack];
   the writers below then store without capacity checks, and the row
   loops keep the one-byte case inline — without flambda a call per int
   costs more than the store. *)
module Key = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create () = { buf = Bytes.create 256; pos = 0 }
  let reset t = t.pos <- 0

  let ensure t bytes =
    if t.pos + bytes > Bytes.length t.buf then begin
      let nb = Bytes.create (max (t.pos + bytes) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 nb 0 t.pos;
      t.buf <- nb
    end

  (* Room for [n] more ints. *)
  let reserve t n = ensure t (9 * n)

  (* The escape of one int outside [-1, 253]: returns the next position. *)
  let escape buf pos n =
    Bytes.unsafe_set buf pos '\255';
    Bytes.set_int64_ne buf (pos + 1) (Int64.of_int n);
    pos + 9

  (* One int, unchecked (after [reserve]). *)
  let int t n =
    if n >= -1 && n <= 253 then begin
      Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (n + 1));
      t.pos <- t.pos + 1
    end
    else t.pos <- escape t.buf t.pos n

  (* [a.(off) .. a.(off+len-1)], unchecked. *)
  let slice t (a : int array) off len =
    let buf = t.buf in
    let pos = ref t.pos in
    for i = off to off + len - 1 do
      let v = Array.unsafe_get a i in
      if v >= -1 && v <= 253 then begin
        Bytes.unsafe_set buf !pos (Char.unsafe_chr (v + 1));
        incr pos
      end
      else pos := escape buf !pos v
    done;
    t.pos <- !pos

  (* Every int of every row, unchecked: a state's fixed-shape part, in
     one call. *)
  let rows t (rs : int array array) =
    let buf = t.buf in
    let pos = ref t.pos in
    for r = 0 to Array.length rs - 1 do
      let a = Array.unsafe_get rs r in
      for i = 0 to Array.length a - 1 do
        let v = Array.unsafe_get a i in
        if v >= -1 && v <= 253 then begin
          Bytes.unsafe_set buf !pos (Char.unsafe_chr (v + 1));
          incr pos
        end
        else pos := escape buf !pos v
      done
    done;
    t.pos <- !pos

  let add_row t a =
    reserve t (Array.length a);
    slice t a 0 (Array.length a)

  (* Zero the 8 bytes after the key, so it can be read a word at a
     time. *)
  let pad t =
    ensure t 8;
    Bytes.set_int64_ne t.buf t.pos 0L

  (* Decoding, for [unpack]: a reader walks a key stored at some offset
     of a byte arena. *)
  type reader = { mutable src : Bytes.t; mutable at : int }

  let reader () = { src = Bytes.empty; at = 0 }

  let load r src at =
    r.src <- src;
    r.at <- at

  (* The int escaped at [at]. *)
  let wide src at = Int64.to_int (Bytes.get_int64_ne src (at + 1))

  let get r =
    let c = Char.code (Bytes.unsafe_get r.src r.at) in
    if c < 255 then begin
      r.at <- r.at + 1;
      c - 1
    end
    else begin
      let v = wide r.src r.at in
      r.at <- r.at + 9;
      v
    end

  let get_slice r (a : int array) off len =
    let src = r.src in
    let at = ref r.at in
    for i = off to off + len - 1 do
      let c = Char.code (Bytes.unsafe_get src !at) in
      if c < 255 then begin
        Array.unsafe_set a i (c - 1);
        incr at
      end
      else begin
        Array.unsafe_set a i (wide src !at);
        at := !at + 9
      end
    done;
    r.at <- !at

  let get_rows r (rs : int array array) =
    let src = r.src in
    let at = ref r.at in
    for k = 0 to Array.length rs - 1 do
      let a = Array.unsafe_get rs k in
      for i = 0 to Array.length a - 1 do
        let c = Char.code (Bytes.unsafe_get src !at) in
        if c < 255 then begin
          Array.unsafe_set a i (c - 1);
          incr at
        end
        else begin
          Array.unsafe_set a i (wide src !at);
          at := !at + 9
        end
      done
    done;
    r.at <- !at
end

module type SEM = sig
  val name : string

  type state

  val create : Lprog.t -> state
  val pack : state -> Key.t -> unit
  val unpack : state -> Bytes.t -> int -> unit
  val is_final : state -> bool
  val regs : state -> int array
  val moves : state -> (unit -> unit) -> int
end

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)

let all_done (code : Lprog.thread array) (pc : int array) =
  let ok = ref true in
  for t = 0 to Array.length pc - 1 do
    if pc.(t) < Array.length code.(t) then ok := false
  done;
  !ok

(* The value of [v] for the thread whose registers start at [base] of
   the flat register file. *)
let eval (regs : int array) base = function
  | Lprog.Const c -> c
  | Lprog.Reg r -> regs.(base + r)

(* Advance thread [t] past its instruction around [k]. *)
let adv (pc : int array) t k =
  let i = pc.(t) in
  pc.(t) <- i + 1;
  k ();
  pc.(t) <- i

(* [adv], with [a.(i)] set to [v] meanwhile. *)
let set_adv (a : int array) i v pc t k =
  let old = a.(i) in
  a.(i) <- v;
  adv pc t k;
  a.(i) <- old

(* The most instructions of any one thread that satisfy [f]; at least
   1, since it sizes a buffer. *)
let max_count (code : Lprog.thread array) f =
  Array.fold_left
    (fun m th ->
      max m (Array.fold_left (fun c i -> if f i then c + 1 else c) 0 th))
    1 code

let is_store = function Lprog.St _ -> true | _ -> false

(* Does thread [t] stand at a release of a lock it does not hold?  Every
   semantics refuses such a program: [moves] raises before its first
   move, so a refused state never pushes a successor. *)
let stray_release (code : Lprog.thread array) pc (locks : int array) t =
  let th = code.(t) in
  let i = pc.(t) in
  i < Array.length th
  && match th.(i) with Lprog.Rel l -> locks.(l) <> t | _ -> false

(* ------------------------------------------------------------------ *)

module Sc = struct
  let name = "SC"

  type state = {
    code : Lprog.thread array;
    nr : int;
    pc : int array;
    regs : int array;  (* thread-major, [nr] per thread *)
    mem : int array;
    locks : int array;  (* -1 = free, otherwise holder *)
    fixed : int array array;  (* every row above: the whole key *)
    size : int;  (* ints in [fixed] *)
    rd : Key.reader;
  }

  let create (p : Lprog.t) =
    let n = Lprog.n_threads p in
    let pc = Array.make n 0 and regs = Array.make (n * p.regs) 0 in
    let mem = Array.make p.locs 0 and locks = Array.make p.locs (-1) in
    {
      code = p.threads;
      nr = p.regs;
      pc;
      regs;
      mem;
      locks;
      fixed = [| pc; regs; mem; locks |];
      size = n + (n * p.regs) + (2 * p.locs);
      rd = Key.reader ();
    }

  let pack st b =
    Key.reserve b st.size;
    Key.rows b st.fixed

  let unpack st src at =
    Key.load st.rd src at;
    Key.get_rows st.rd st.fixed

  let is_final st = all_done st.code st.pc
  let regs st = st.regs

  (* Thread [t]'s next instruction around [k]; [false] when [t] has
     finished or waits — on an unmet [Wait_eq], a held lock, or a
     release of a lock it does not hold (which [moves] refuses). *)
  let step st t k =
    let th = st.code.(t) and i = st.pc.(t) in
    i < Array.length th
    &&
    match th.(i) with
    | Lprog.Ld { loc; reg } ->
        set_adv st.regs ((t * st.nr) + reg) st.mem.(loc) st.pc t k;
        true
    | Lprog.St { loc; v } ->
        set_adv st.mem loc (eval st.regs (t * st.nr) v) st.pc t k;
        true
    | Lprog.Wait_eq { loc; v } -> st.mem.(loc) = v && (adv st.pc t k; true)
    | Lprog.Acq l ->
        st.locks.(l) = -1 && (set_adv st.locks l t st.pc t k; true)
    | Lprog.Rel l ->
        st.locks.(l) = t && (set_adv st.locks l (-1) st.pc t k; true)
    | Lprog.Fence | Lprog.Flush _ ->
        adv st.pc t k;
        true

  let event st t : History.event option =
    let th = st.code.(t) in
    if st.pc.(t) >= Array.length th then None
    else
      match th.(st.pc.(t)) with
      | Lprog.Flush _ -> None
      | Lprog.Ld { loc; _ } ->
          Some (History.E_read { proc = t; loc; value = st.mem.(loc) })
      | Lprog.St { loc; v } ->
          Some
            (History.E_write
               { proc = t; loc; value = eval st.regs (t * st.nr) v })
      | Lprog.Wait_eq { loc; v } ->
          Some (History.E_read { proc = t; loc; value = v })
      | Lprog.Acq l -> Some (History.E_acquire { proc = t; loc = l })
      | Lprog.Rel l -> Some (History.E_release { proc = t; loc = l })
      | Lprog.Fence -> Some (History.E_fence { proc = t })

  let moves st k =
    let n = Array.length st.pc in
    for t = 0 to n - 1 do
      if stray_release st.code st.pc st.locks t then
        failwith "SC: release without acquire"
    done;
    let c = ref 0 in
    for t = 0 to n - 1 do
      if step st t k then incr c
    done;
    !c
end

(* ------------------------------------------------------------------ *)

module Pc : SEM = struct
  let name = "PC (TSO store buffers)"

  type state = {
    code : Lprog.thread array;
    nr : int;
    pc : int array;
    regs : int array;
    mem : int array;
    locks : int array;
    cap : int;  (* buffer slots per thread: its most stores *)
    bloc : int array;  (* thread-major store buffers, [cap] per thread *)
    bval : int array;
    head : int array;  (* per thread: oldest pending slot *)
    tail : int array;  (* per thread: next free slot *)
    fixed : int array array;  (* pc, regs, mem, locks *)
    size : int;  (* the longest key, in ints *)
    rd : Key.reader;
  }

  (* A decoded buffer starts at slot 0, and every later push is one of
     the thread's remaining stores, so [cap] slots never overflow. *)
  let create (p : Lprog.t) =
    let n = Lprog.n_threads p in
    let cap = max_count p.threads is_store in
    let pc = Array.make n 0 and regs = Array.make (n * p.regs) 0 in
    let mem = Array.make p.locs 0 and locks = Array.make p.locs (-1) in
    {
      code = p.threads;
      nr = p.regs;
      pc;
      regs;
      mem;
      locks;
      cap;
      bloc = Array.make (n * cap) 0;
      bval = Array.make (n * cap) 0;
      head = Array.make n 0;
      tail = Array.make n 0;
      fixed = [| pc; regs; mem; locks |];
      size = n + (n * p.regs) + (2 * p.locs) + n + (2 * n * cap);
      rd = Key.reader ();
    }

  let empty st t = st.head.(t) = st.tail.(t)

  (* Value of [loc] as seen by thread [t]: newest buffered store wins. *)
  let visible st t loc =
    let base = t * st.cap in
    let i = ref (st.tail.(t) - 1) in
    while !i >= st.head.(t) && st.bloc.(base + !i) <> loc do
      decr i
    done;
    if !i >= st.head.(t) then st.bval.(base + !i) else st.mem.(loc)

  let step st t k =
    let th = st.code.(t) and i = st.pc.(t) in
    i < Array.length th
    &&
    match th.(i) with
    | Lprog.Ld { loc; reg } ->
        set_adv st.regs ((t * st.nr) + reg) (visible st t loc) st.pc t k;
        true
    | Lprog.St { loc; v } ->
        let tl = st.tail.(t) in
        st.bloc.((t * st.cap) + tl) <- loc;
        st.bval.((t * st.cap) + tl) <- eval st.regs (t * st.nr) v;
        set_adv st.tail t (tl + 1) st.pc t k;
        true
    | Lprog.Wait_eq { loc; v } ->
        visible st t loc = v && (adv st.pc t k; true)
    | Lprog.Acq l ->
        (* an atomic RMW drains the store buffer first *)
        empty st t && st.locks.(l) = -1
        && (set_adv st.locks l t st.pc t k; true)
    | Lprog.Rel l ->
        empty st t && st.locks.(l) = t
        && (set_adv st.locks l (-1) st.pc t k; true)
    | Lprog.Fence -> empty st t && (adv st.pc t k; true)
    | Lprog.Flush _ ->
        adv st.pc t k;
        true

  let drain st t k =
    let h = st.head.(t) in
    h < st.tail.(t)
    && begin
         let e = (t * st.cap) + h in
         let loc = st.bloc.(e) in
         let old = st.mem.(loc) in
         st.mem.(loc) <- st.bval.(e);
         st.head.(t) <- h + 1;
         k ();
         st.head.(t) <- h;
         st.mem.(loc) <- old;
         true
       end

  (* A release waits for the buffer to drain; only then is a stray one
     refused. *)
  let moves st k =
    let n = Array.length st.pc in
    for t = 0 to n - 1 do
      if empty st t && stray_release st.code st.pc st.locks t then
        failwith "PC: release without acquire"
    done;
    let c = ref 0 in
    for t = 0 to n - 1 do
      if step st t k then incr c
    done;
    for t = 0 to n - 1 do
      if drain st t k then incr c
    done;
    !c

  let is_final st =
    all_done st.code st.pc
    &&
    let ok = ref true in
    for t = 0 to Array.length st.pc - 1 do
      if not (empty st t) then ok := false
    done;
    !ok

  let regs st = st.regs

  let pack st b =
    Key.reserve b st.size;
    Key.rows b st.fixed;
    for t = 0 to Array.length st.pc - 1 do
      let h = st.head.(t) in
      let len = st.tail.(t) - h in
      Key.int b len;
      for i = (t * st.cap) + h to (t * st.cap) + h + len - 1 do
        Key.int b st.bloc.(i);
        Key.int b st.bval.(i)
      done
    done

  let unpack st src at =
    let r = st.rd in
    Key.load r src at;
    Key.get_rows r st.fixed;
    for t = 0 to Array.length st.pc - 1 do
      let len = Key.get r in
      st.head.(t) <- 0;
      st.tail.(t) <- len;
      for i = t * st.cap to (t * st.cap) + len - 1 do
        st.bloc.(i) <- Key.get r;
        st.bval.(i) <- Key.get r
      done
    done
end

(* ------------------------------------------------------------------ *)

module Cc : SEM = struct
  let name = "CC (per-location logs)"

  type state = {
    code : Lprog.thread array;
    nr : int;
    locs : int;
    pc : int array;
    regs : int array;
    locks : int array;
    idx : int array;  (* thread x location: the newest applied entry *)
    cap : int;  (* entries per log: the initial 0 plus every store *)
    logv : int array;  (* location-major write logs, oldest first *)
    loglen : int array;
    fixed : int array array;  (* pc, regs, locks, idx *)
    size : int;  (* the longest key, in ints *)
    rd : Key.reader;
  }

  let create (p : Lprog.t) =
    let n = Lprog.n_threads p in
    let cap =
      1
      + Array.fold_left
          (fun c th ->
            c + Array.fold_left (fun c i -> if is_store i then c + 1 else c) 0 th)
          0 p.threads
    in
    let pc = Array.make n 0 and regs = Array.make (n * p.regs) 0 in
    let locks = Array.make p.locs (-1) and idx = Array.make (n * p.locs) 0 in
    {
      code = p.threads;
      nr = p.regs;
      locs = p.locs;
      pc;
      regs;
      locks;
      idx;
      cap;
      logv = Array.make (p.locs * cap) 0;
      loglen = Array.make p.locs 1;
      fixed = [| pc; regs; locks; idx |];
      size = n + (n * p.regs) + p.locs + (n * p.locs) + (p.locs * (1 + cap));
      rd = Key.reader ();
    }

  let current st t loc = st.logv.((loc * st.cap) + st.idx.((t * st.locs) + loc))

  let step st t k =
    let th = st.code.(t) and i = st.pc.(t) in
    i < Array.length th
    &&
    match th.(i) with
    | Lprog.Ld { loc; reg } ->
        set_adv st.regs ((t * st.nr) + reg) (current st t loc) st.pc t k;
        true
    | Lprog.St { loc; v } ->
        let len = st.loglen.(loc) in
        st.logv.((loc * st.cap) + len) <- eval st.regs (t * st.nr) v;
        st.loglen.(loc) <- len + 1;
        set_adv st.idx ((t * st.locs) + loc) len st.pc t k;
        st.loglen.(loc) <- len;
        true
    | Lprog.Wait_eq { loc; v } ->
        current st t loc = v && (adv st.pc t k; true)
    | Lprog.Acq l ->
        st.locks.(l) = -1
        && begin
             st.locks.(l) <- t;
             (* synchronizing on l brings the acquirer up to date on l *)
             set_adv st.idx ((t * st.locs) + l) (st.loglen.(l) - 1) st.pc t k;
             st.locks.(l) <- -1;
             true
           end
    | Lprog.Rel l ->
        st.locks.(l) = t && (set_adv st.locks l (-1) st.pc t k; true)
    | Lprog.Fence | Lprog.Flush _ ->
        adv st.pc t k;
        true

  let moves st k =
    let n = Array.length st.pc in
    for t = 0 to n - 1 do
      if stray_release st.code st.pc st.locks t then
        failwith "CC: release without acquire"
    done;
    let c = ref 0 in
    for t = 0 to n - 1 do
      if step st t k then incr c
    done;
    (* an observer applies the next entry of one location's log *)
    for t = 0 to n - 1 do
      for loc = 0 to st.locs - 1 do
        let x = (t * st.locs) + loc in
        let i = st.idx.(x) in
        if i < st.loglen.(loc) - 1 then begin
          st.idx.(x) <- i + 1;
          k ();
          st.idx.(x) <- i;
          incr c
        end
      done
    done;
    !c

  let is_final st = all_done st.code st.pc
  let regs st = st.regs

  let pack st b =
    Key.reserve b st.size;
    Key.rows b st.fixed;
    for loc = 0 to st.locs - 1 do
      let len = st.loglen.(loc) in
      Key.int b len;
      Key.slice b st.logv (loc * st.cap) len
    done

  let unpack st src at =
    let r = st.rd in
    Key.load r src at;
    Key.get_rows r st.fixed;
    for loc = 0 to st.locs - 1 do
      let len = Key.get r in
      st.loglen.(loc) <- len;
      Key.get_slice r st.logv (loc * st.cap) len
    done
end

(* ------------------------------------------------------------------ *)

(* Slow, EC and PMC share one state: per-process copies, the lock
   holders and protected master values, update streams and hoist sets.

   The streams: one FIFO per (writer, observer) pair holding value
   updates and (for EC/PMC) fence markers.  An update may be taken out
   of the middle of the stream as long as no earlier update to the same
   location and no earlier marker is still pending; a marker can only be
   consumed from the head.  This realizes exactly ≺P (per-location order
   preserved) and ≺F (markers). *)
module type SLOW_CONFIG = sig
  val name : string

  val fences : bool
  (** fences emit markers into the streams *)

  val sync_locks : bool
  (** acquire/release transfer the master value, and writes made while
      holding the location's lock stay local until release *)

  val hoisting : bool
  (** unfenced acquires may execute ahead of program order *)
end

module Slow_like (C : SLOW_CONFIG) : SEM = struct
  let name = C.name

  type state = {
    code : Lprog.thread array;
    n : int;
    nr : int;
    locs : int;
    pc : int array;
    regs : int array;
    locks : int array;
    copies : int array;  (* thread x location *)
    master : int array;  (* lock-protected value (EC/PMC) *)
    writers : int array;
        (* the threads that push updates or markers, ascending: every
           other thread's streams stay empty *)
    cap : int;  (* items per stream: the writer's most pushes *)
    sloc : int array;
        (* (writer, observer)-major stream items, oldest first: the
           location of an update, -1 for a marker *)
    sval : int array;
    slen : int array;  (* per (writer, observer) pair *)
    hoists : bool;  (* hoisting, and the program has an acquire to hoist *)
    hmax : int;  (* the longest thread *)
    hflag : int array;
        (* thread x instruction: 1 if that acquire was executed early *)
    hcount : int array;
    fixed : int array array;  (* pc, regs, locks, copies, master *)
    size : int;  (* the longest key, in ints *)
    rd : Key.reader;
  }

  let create (p : Lprog.t) =
    let n = Lprog.n_threads p in
    let pushes = function
      | Lprog.St _ | Lprog.Flush _ -> true
      | Lprog.Fence -> C.fences
      | _ -> false
    in
    let cap = max_count p.threads pushes in
    let writers =
      List.filter
        (fun t -> Array.exists pushes p.threads.(t))
        (List.init n Fun.id)
    in
    let hmax = Array.fold_left (fun m th -> max m (Array.length th)) 1 p.threads in
    let pc = Array.make n 0 and regs = Array.make (n * p.regs) 0 in
    let locks = Array.make p.locs (-1) and copies = Array.make (n * p.locs) 0 in
    let master = Array.make p.locs 0 in
    {
      code = p.threads;
      n;
      nr = p.regs;
      locs = p.locs;
      pc;
      regs;
      locks;
      copies;
      master;
      writers = Array.of_list writers;
      cap;
      sloc = Array.make (n * n * cap) 0;
      sval = Array.make (n * n * cap) 0;
      slen = Array.make (n * n) 0;
      hoists =
        C.hoisting
        && Array.exists
             (Array.exists (function Lprog.Acq _ -> true | _ -> false))
             p.threads;
      hmax;
      hflag = Array.make (n * hmax) 0;
      hcount = Array.make n 0;
      (* without value-transferring locks the master row stays 0 *)
      fixed =
        (if C.sync_locks then [| pc; regs; locks; copies; master |]
         else [| pc; regs; locks; copies |]);
      size =
        n + (n * p.regs) + (2 * p.locs) + (n * p.locs)
        + (n * n * (1 + (2 * cap)))
        + (n * (1 + hmax));
      rd = Key.reader ();
    }

  (* Append one item to every stream of writer [w], and take it back. *)
  let push_all st w l v =
    for q = 0 to st.n - 1 do
      if q <> w then begin
        let pq = (w * st.n) + q in
        let len = st.slen.(pq) in
        let e = (pq * st.cap) + len in
        st.sloc.(e) <- l;
        st.sval.(e) <- v;
        st.slen.(pq) <- len + 1
      end
    done

  let pop_all st w =
    for q = 0 to st.n - 1 do
      if q <> w then begin
        let pq = (w * st.n) + q in
        st.slen.(pq) <- st.slen.(pq) - 1
      end
    done

  let broadcast st t l v k =
    push_all st t l v;
    adv st.pc t k;
    pop_all st t

  (* Take item [i] out of stream [pq] around [k]. *)
  let remove st pq i k =
    let base = pq * st.cap in
    let len = st.slen.(pq) in
    let l = st.sloc.(base + i) and v = st.sval.(base + i) in
    for j = base + i to base + len - 2 do
      st.sloc.(j) <- st.sloc.(j + 1);
      st.sval.(j) <- st.sval.(j + 1)
    done;
    st.slen.(pq) <- len - 1;
    k ();
    st.slen.(pq) <- len;
    for j = base + len - 1 downto base + i + 1 do
      st.sloc.(j) <- st.sloc.(j - 1);
      st.sval.(j) <- st.sval.(j - 1)
    done;
    st.sloc.(base + i) <- l;
    st.sval.(base + i) <- v

  let hoisted st t i = st.hoists && st.hflag.((t * st.hmax) + i) = 1

  let set_hoisted st t i on =
    st.hflag.((t * st.hmax) + i) <- (if on then 1 else 0);
    st.hcount.(t) <- (st.hcount.(t) + if on then 1 else -1)

  let step st t k =
    let th = st.code.(t) and i = st.pc.(t) in
    i < Array.length th
    &&
    if hoisted st t i then begin
      (* this instruction was already executed early: consume it *)
      set_hoisted st t i false;
      adv st.pc t k;
      set_hoisted st t i true;
      true
    end
    else
      match th.(i) with
      | Lprog.Ld { loc; reg } ->
          set_adv st.regs ((t * st.nr) + reg)
            st.copies.((t * st.locs) + loc)
            st.pc t k;
          true
      | Lprog.St { loc; v } ->
          let value = eval st.regs (t * st.nr) v in
          let x = (t * st.locs) + loc in
          let old = st.copies.(x) in
          st.copies.(x) <- value;
          if C.sync_locks && st.locks.(loc) = t then
            adv st.pc t k (* lazy release: stays local *)
          else broadcast st t loc value k;
          st.copies.(x) <- old;
          true
      | Lprog.Wait_eq { loc; v } ->
          st.copies.((t * st.locs) + loc) = v && (adv st.pc t k; true)
      | Lprog.Acq l ->
          st.locks.(l) = -1
          && begin
               st.locks.(l) <- t;
               if C.sync_locks then
                 set_adv st.copies ((t * st.locs) + l) st.master.(l) st.pc t k
               else adv st.pc t k;
               st.locks.(l) <- -1;
               true
             end
      | Lprog.Rel l ->
          st.locks.(l) = t
          && begin
               st.locks.(l) <- -1;
               if C.sync_locks then
                 set_adv st.master l st.copies.((t * st.locs) + l) st.pc t k
               else adv st.pc t k;
               st.locks.(l) <- t;
               true
             end
      | Lprog.Fence ->
          if C.fences then broadcast st t (-1) 0 k else adv st.pc t k;
          true
      | Lprog.Flush l ->
          broadcast st t l st.copies.((t * st.locs) + l) k;
          true

  (* Is there an update to [l] among the first [i] items at [base]? *)
  let earlier st base i l =
    let hit = ref false in
    for j = base to base + i - 1 do
      if st.sloc.(j) = l then hit := true
    done;
    !hit

  (* One move per ready stream item, in the order the persistent
     semantics listed them: writer, observer and item all descending.
     A marker is ready only at the head and blocks everything behind
     it; an update is ready if no earlier same-location update is
     pending. *)
  let applies st k =
    let c = ref 0 in
    for x = Array.length st.writers - 1 downto 0 do
      let w = st.writers.(x) in
      for q = st.n - 1 downto 0 do
        let pq = (w * st.n) + q in
        let len = st.slen.(pq) in
        if w <> q && len > 0 then begin
          let base = pq * st.cap in
          if st.sloc.(base) < 0 then begin
            remove st pq 0 k;
            incr c
          end
          else begin
            let m = ref 0 in
            while !m < len && st.sloc.(base + !m) >= 0 do
              incr m
            done;
            for i = !m - 1 downto 0 do
              let l = st.sloc.(base + i) in
              if not (earlier st base i l) then begin
                let x = (q * st.locs) + l in
                let old = st.copies.(x) in
                st.copies.(x) <- st.sval.(base + i);
                remove st pq i k;
                st.copies.(x) <- old;
                incr c
              end
            done
          end
        end
      done
    done;
    !c

  (* PMC's acquire hoisting.  Because acquire/releases of different
     locations are unordered unless fenced, an implementation (compiler
     or out-of-order core) may perform a later acquire early.  A pending
     [Acq l] may execute ahead of program order when every instruction
     between the program counter and it is a plain read, write or wait
     on a *different* location — a fence, another synchronization
     operation, a flush or any operation on [l] blocks the hoist.  This
     is exactly the transformation Fig. 6's fence at line 11 exists to
     forbid ("prevents the compiler from moving the acquire at line 13
     to before the while loop").  At most one candidate per thread: the
     scan forward from the program counter stops at the first
     un-hoisted synchronization operation either way. *)
  let blocked st t l upto =
    let th = st.code.(t) in
    let hit = ref false in
    for j = st.pc.(t) to upto - 1 do
      if not (hoisted st t j) then
        match th.(j) with
        | Lprog.Ld { loc; _ } | Lprog.St { loc; _ } | Lprog.Wait_eq { loc; _ }
          ->
            if loc = l then hit := true
        | _ -> ()
    done;
    !hit

  let rec hoist_from st t k j =
    let th = st.code.(t) in
    if j >= Array.length th then false
    else if hoisted st t j then hoist_from st t k (j + 1)
    else
      match th.(j) with
      | Lprog.Acq l when j > st.pc.(t) ->
          (* hoist if the lock is free and no in-between op touches l;
             scanning stops here either way *)
          st.locks.(l) = -1
          && (not (blocked st t l j))
          && begin
               st.locks.(l) <- t;
               let x = (t * st.locs) + l in
               let old = st.copies.(x) in
               st.copies.(x) <- st.master.(l);
               set_hoisted st t j true;
               k ();
               set_hoisted st t j false;
               st.copies.(x) <- old;
               st.locks.(l) <- -1;
               true
             end
      | Lprog.Acq _ | Lprog.Rel _ | Lprog.Fence | Lprog.Flush _ -> false
      | Lprog.Ld _ | Lprog.St _ | Lprog.Wait_eq _ -> hoist_from st t k (j + 1)

  (* Program steps by thread, then stream applies, then hoists. *)
  let moves st k =
    for t = 0 to st.n - 1 do
      if stray_release st.code st.pc st.locks t then
        failwith "Slow/PMC: release without acquire"
    done;
    let c = ref 0 in
    for t = 0 to st.n - 1 do
      if step st t k then incr c
    done;
    c := !c + applies st k;
    if st.hoists then
      for t = 0 to st.n - 1 do
        if hoist_from st t k st.pc.(t) then incr c
      done;
    !c

  let is_final st = all_done st.code st.pc
  let regs st = st.regs

  (* Each stream of a writer, observers ascending: its length, then per
     item the location (-1 for a marker) and an update's value; the
     one-byte cases inline, as in [Key.rows]. *)
  let pack_streams st (b : Key.t) =
    let n = st.n in
    let buf = b.Key.buf in
    let pos = ref b.Key.pos in
    for x = 0 to Array.length st.writers - 1 do
      let w = Array.unsafe_get st.writers x in
      for q = 0 to n - 1 do
        if w <> q then begin
          let pq = (w * n) + q in
          let len = Array.unsafe_get st.slen pq in
          if len <= 253 then begin
            Bytes.unsafe_set buf !pos (Char.unsafe_chr (len + 1));
            incr pos
          end
          else pos := Key.escape buf !pos len;
          for e = pq * st.cap to (pq * st.cap) + len - 1 do
            let l = Array.unsafe_get st.sloc e in
            if l <= 253 then begin
              Bytes.unsafe_set buf !pos (Char.unsafe_chr (l + 1));
              incr pos
            end
            else pos := Key.escape buf !pos l;
            if l >= 0 then begin
              let v = Array.unsafe_get st.sval e in
              if v >= -1 && v <= 253 then begin
                Bytes.unsafe_set buf !pos (Char.unsafe_chr (v + 1));
                incr pos
              end
              else pos := Key.escape buf !pos v
            end
          done
        end
      done
    done;
    b.Key.pos <- !pos

  let unpack_streams st (r : Key.reader) =
    let n = st.n in
    for x = 0 to Array.length st.writers - 1 do
      let w = st.writers.(x) in
      for q = 0 to n - 1 do
        if w <> q then begin
          let pq = (w * n) + q in
          let len = Key.get r in
          st.slen.(pq) <- len;
          for e = pq * st.cap to (pq * st.cap) + len - 1 do
            let l = Key.get r in
            st.sloc.(e) <- l;
            st.sval.(e) <- (if l >= 0 then Key.get r else 0)
          done
        end
      done
    done

  let pack st b =
    Key.reserve b st.size;
    Key.rows b st.fixed;
    pack_streams st b;
    if st.hoists then
      for t = 0 to st.n - 1 do
        Key.int b st.hcount.(t);
        if st.hcount.(t) > 0 then
          for j = 0 to st.hmax - 1 do
            if st.hflag.((t * st.hmax) + j) = 1 then Key.int b j
          done
      done

  let unpack st src at =
    let r = st.rd in
    Key.load r src at;
    Key.get_rows r st.fixed;
    unpack_streams st r;
    if st.hoists then
      for t = 0 to st.n - 1 do
        Array.fill st.hflag (t * st.hmax) st.hmax 0;
        let count = Key.get r in
        st.hcount.(t) <- count;
        for _ = 1 to count do
          st.hflag.((t * st.hmax) + Key.get r) <- 1
        done
      done
end

module Slow = Slow_like (struct
  let name = "Slow"
  let fences = false
  let sync_locks = false
  let hoisting = false
end)

(* Entry-Consistency-like semantics: PMC's value-transferring locks and
   fences, but synchronization operations of one process stay in program
   order — the strengthening the paper relaxes ("our model is weaker
   [than EC] because acquire/releases of different locations by the same
   process are not ordered, unless a fence is applied"). *)
module Ec = Slow_like (struct
  let name = "EC"
  let fences = true
  let sync_locks = true
  let hoisting = false
end)

(* Full PMC: EC's transitions plus acquire hoisting ([hoist_from]). *)
module Pmc = Slow_like (struct
  let name = "PMC"
  let fences = true
  let sync_locks = true
  let hoisting = true
end)

let all : (module SEM) list =
  [ (module Sc); (module Pc); (module Cc); (module Ec); (module Slow);
    (module Pmc) ]
