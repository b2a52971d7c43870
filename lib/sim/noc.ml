(* Write-only network-on-chip (Fig. 7): a core may post writes into another
   tile's local memory, but can never read a remote memory.  Writes are
   posted — the sender only pays the injection cost; the data lands in the
   destination memory after the link latency, delivered by an engine event.

   Per (source, destination) pair delivery is FIFO, like the connectionless
   NoC of the paper's platform [16].  [post_write_at] bypasses the FIFO and
   lets the caller pick the arrival time; it models the Fig. 1 architecture
   where two memories sit behind paths of different latency, and is what
   the broken-flag demonstration uses.

   Fault-free fast path.  A posted write stages its payload into a pooled
   [Mem.t] buffer held by an integer-indexed delivery arena and schedules
   a single preallocated closure via [Engine.at_indexed], so the
   steady-state post/deliver cycle allocates nothing: no payload copies
   on the OCaml heap, no per-delivery closure.  Buffers stay attached to
   their arena slot and are reused; one grows (once) if a later payload
   needs more room.

   Resilient transport (the chaos plane).  When the fault plane is armed,
   every posted write becomes a sequenced, checksummed packet on its
   (src, dst) link and delivery runs through a per-link worker:

     - each link serves its packet queue strictly in order, so FIFO
       delivery survives retransmission — a retried packet can never be
       overtaken by a later write on the same link, which the DSM's
       narrow flushes depend on;
     - a dropped attempt is detected by the sender after an ack timeout
       and retransmitted under capped exponential backoff; a corrupted
       attempt is caught by the packet checksum at the receiver and
       retransmitted the same way, so corruption never lands silently;
     - a transiently delayed attempt just lands late;
     - after [noc_retry_limit] failed retransmissions the link is
       declared dead and every packet for it — queued and future — is
       staged through the shared SDRAM instead (the relay path,
       [Config.relay_latency]); data still always arrives, only slower.

   When the fault plane is disarmed every post takes the plain path below,
   bit-identical to the transport without the plane. *)

(* One posted write on the resilient path. *)
type packet = {
  seq : int;               (* per-link sequence number *)
  off : int;               (* destination local-memory offset *)
  data : Bytes.t;
  csum : int;              (* Fault.checksum of [data] *)
  nominal : int;           (* fault-free arrival time *)
  mutable attempts : int;  (* transmissions so far (1 = original) *)
}

type link = {
  q : packet Queue.t;      (* head is in service *)
  mutable busy : bool;     (* a worker event is scheduled for this link *)
  mutable dead : bool;     (* retry budget exhausted; relay path only *)
  mutable next_seq : int;
}

type t = {
  cfg : Config.t;
  engine : Engine.t;
  fault : Fault.t;
  locals : Mem.t array;                    (* per-tile local memories *)
  outstanding : int array;                 (* in-flight writes per source *)
  last_arrival : int array;                (* latest arrival time per source *)
  link_last : int array array;             (* per (src, dst) FIFO ordering;
                                              a source's row is allocated
                                              on its first post, and a
                                              missing row reads as 0 *)
  links : link array array;                (* resilient path, per (src, dst);
                                              allocated only when the fault
                                              plane is armed (cores² records
                                              are real memory at 1024 tiles) *)
  contended : bool;                        (* non-star fabric: route messages
                                              over physical links and account
                                              per-link contention *)
  link_busy : int array;                   (* busy-until horizon per directed
                                              physical link (empty on Star) *)
  mutable total_writes : int;
  (* fault-free delivery arena: pooled payload buffers + parallel fields,
     dispatched by one preallocated closure via [Engine.at_indexed] *)
  mutable d_buf : Mem.t array;
  mutable d_src : int array;
  mutable d_dst : int array;
  mutable d_off : int array;
  mutable d_len : int array;
  mutable d_next : int array;              (* free list *)
  mutable d_free : int;
  mutable deliver_fn : int -> unit;
}

let no_buf : Mem.t = Bigarray.Array1.create Bigarray.Char Bigarray.C_layout 0

let initial_deliveries = 64

let create (cfg : Config.t) (fault : Fault.t) (engine : Engine.t)
    (locals : Mem.t array) =
  let d_next = Array.init initial_deliveries (fun i -> i + 1) in
  d_next.(initial_deliveries - 1) <- -1;
  let t =
    {
      cfg;
      engine;
      fault;
      locals;
      outstanding = Array.make cfg.cores 0;
      last_arrival = Array.make cfg.cores 0;
      link_last = Array.make cfg.cores [||];
      links =
        (* fault-free runs never touch the resilient path, so a scale
           machine skips allocating cores² queue records *)
        (if Fault.enabled fault then
           Array.init cfg.cores (fun _ ->
               Array.init cfg.cores (fun _ ->
                   { q = Queue.create (); busy = false; dead = false;
                     next_seq = 0 }))
         else [||]);
      contended = cfg.topology <> Topology.Star;
      link_busy = Array.make (Topology.link_count cfg.topology) 0;
      total_writes = 0;
      d_buf = Array.make initial_deliveries no_buf;
      d_src = Array.make initial_deliveries 0;
      d_dst = Array.make initial_deliveries 0;
      d_off = Array.make initial_deliveries 0;
      d_len = Array.make initial_deliveries 0;
      d_next;
      d_free = 0;
      deliver_fn = (fun _ -> ());
    }
  in
  t.deliver_fn <-
    (fun i ->
      Mem.blit t.d_buf.(i) 0 t.locals.(t.d_dst.(i)) t.d_off.(i) t.d_len.(i);
      t.outstanding.(t.d_src.(i)) <- t.outstanding.(t.d_src.(i)) - 1;
      t.d_next.(i) <- t.d_free;
      t.d_free <- i);
  t

let grow_deliveries t =
  let n = Array.length t.d_buf in
  let n' = 2 * n in
  let copy dummy a =
    let a' = Array.make n' dummy in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.d_buf <- copy no_buf t.d_buf;
  t.d_src <- copy 0 t.d_src;
  t.d_dst <- copy 0 t.d_dst;
  t.d_off <- copy 0 t.d_off;
  t.d_len <- copy 0 t.d_len;
  let nx = Array.make n' (-1) in
  Array.blit t.d_next 0 nx 0 n;
  for i = n to n' - 2 do
    nx.(i) <- i + 1
  done;
  t.d_next <- nx;
  t.d_free <- n

(* Round buffer capacity up so a slot settles quickly instead of
   reallocating for every distinct payload size it sees. *)
let rec round_cap c len = if c >= len then c else round_cap (2 * c) len

let alloc_delivery t ~src ~dst ~off ~len =
  if t.d_free = -1 then grow_deliveries t;
  let i = t.d_free in
  t.d_free <- t.d_next.(i);
  if Mem.length t.d_buf.(i) < len then
    t.d_buf.(i) <- Mem.create (round_cap 8 len);
  t.d_src.(i) <- src;
  t.d_dst.(i) <- dst;
  t.d_off.(i) <- off;
  t.d_len.(i) <- len;
  i

let emit_fault t ~time f =
  Probe.emit (Engine.probe t.engine) ~time (Probe.Fault f)

(* The (src, dst) FIFO horizon: the arrival time of the newest write
   posted on that link.  Rows are lazy, so a machine whose tiles never
   post (cores² ints are 8 MB at 1024 tiles) allocates none. *)
let[@inline] link_last t ~src ~dst =
  let row = t.link_last.(src) in
  if Array.length row = 0 then 0 else row.(dst)

let set_link_last t ~src ~dst v =
  let row = t.link_last.(src) in
  let row =
    if Array.length row > 0 then row
    else begin
      let r = Array.make t.cfg.cores 0 in
      t.link_last.(src) <- r;
      r
    end
  in
  row.(dst) <- v

(* Arrival time of a posted write injected at [now], honouring both the
   per-(src, dst) FIFO and — on routed fabrics — per-physical-link
   contention.

   Star keeps the seed model verbatim: flat [Config.noc_latency] bounded
   below by the link FIFO.  On mesh/torus/hier fabrics the message is
   walked store-and-forward over its route: at each directed link it
   waits for the link's busy-until horizon, occupies the link for the
   payload's serialization time and pays the hop latency — so latency
   reflects path length, and two messages crossing the same link contend
   even when their (src, dst) pairs differ.  The caller stores the
   result with [set_link_last]. *)
let route_arrival t ~now ~src ~dst ~words =
  if not t.contended then
    let latency = Config.noc_latency t.cfg ~src ~dst ~words in
    max (now + latency) (link_last t ~src ~dst + 1)
  else begin
    let cfg = t.cfg in
    let occupy = cfg.Config.noc_word_cycles * words in
    let tm = ref (now + cfg.Config.noc_base_cycles) in
    Topology.iter_route cfg.Config.topology ~cores:cfg.Config.cores ~src ~dst
      (fun link ->
        let depart = max !tm t.link_busy.(link) in
        t.link_busy.(link) <- depart + occupy;
        tm := depart + cfg.Config.noc_hop_cycles + occupy);
    max !tm (link_last t ~src ~dst + 1)
  end

(* ---------------- resilient per-link delivery ---------------- *)

(* The engine gives event closures no ambient clock, so every worker step
   carries its own scheduled [time]. *)

(* Deliver the head packet's payload at [time], then serve the next. *)
let rec complete t ~src ~dst link ~time () =
  let p = Queue.pop link.q in
  assert (Fault.checksum p.data = p.csum);
  Mem.blit_of_bytes p.data 0 t.locals.(dst) p.off (Bytes.length p.data);
  t.outstanding.(src) <- t.outstanding.(src) - 1;
  next t ~src ~dst link ~time

(* Arm the worker for the new head packet, if any: not before the packet's
   nominal arrival, and strictly after the previous delivery. *)
and next t ~src ~dst link ~time =
  match Queue.peek_opt link.q with
  | None -> link.busy <- false
  | Some p ->
      let at = max (time + 1) p.nominal in
      t.last_arrival.(src) <- max t.last_arrival.(src) at;
      Engine.at t.engine ~time:at (service t ~src ~dst link ~time:at)

(* One worker step: attempt (or relay) delivery of the head packet. *)
and service t ~src ~dst link ~time () =
  match Queue.peek_opt link.q with
  | None -> link.busy <- false
  | Some p ->
      if link.dead then begin
        (* Degraded path: stage the payload through the shared SDRAM
           instead of the dead link.  Serialized like the link itself so
           ordering is preserved. *)
        let words = (Bytes.length p.data + 3) / 4 in
        let at = time + Config.relay_latency t.cfg ~words in
        let counts = Fault.counts t.fault in
        counts.Fault.relay_deliveries <- counts.Fault.relay_deliveries + 1;
        emit_fault t ~time (Probe.F_noc_degraded { src; dst; seq = p.seq });
        t.last_arrival.(src) <- max t.last_arrival.(src) at;
        Engine.at t.engine ~time:at (complete t ~src ~dst link ~time:at)
      end
      else begin
        p.attempts <- p.attempts + 1;
        match
          Fault.route_outcome t.fault ~src ~dst ~seq:p.seq ~attempt:p.attempts
        with
        | Fault.Deliver -> complete t ~src ~dst link ~time ()
        | Fault.Delay d ->
            emit_fault t ~time
              (Probe.F_noc_delay { src; dst; seq = p.seq; cycles = d });
            let at = time + d in
            t.last_arrival.(src) <- max t.last_arrival.(src) at;
            Engine.at t.engine ~time:at (complete t ~src ~dst link ~time:at)
        | (Fault.Drop | Fault.Corrupt) as failure ->
            emit_fault t ~time
              (match failure with
              | Fault.Drop ->
                  Probe.F_noc_drop { src; dst; seq = p.seq; attempt = p.attempts }
              | _ ->
                  Probe.F_noc_corrupt
                    { src; dst; seq = p.seq; attempt = p.attempts });
            if p.attempts > t.cfg.Config.noc_retry_limit then begin
              (* Retry budget exhausted: the link is dead from here on;
                 this and all queued packets degrade to the relay. *)
              link.dead <- true;
              let counts = Fault.counts t.fault in
              counts.Fault.links_dead <- counts.Fault.links_dead + 1;
              emit_fault t ~time (Probe.F_link_dead { src; dst });
              service t ~src ~dst link ~time ()
            end
            else begin
              (* Loss detected after the ack turnaround; retransmit under
                 capped exponential backoff. *)
              let base = t.cfg.Config.noc_retry_backoff in
              let backoff =
                min (base lsl (p.attempts - 1)) (base * 64)
              in
              let at = time + t.cfg.Config.noc_ack_cycles + backoff in
              let counts = Fault.counts t.fault in
              counts.Fault.noc_retries <- counts.Fault.noc_retries + 1;
              emit_fault t ~time
                (Probe.F_noc_retry
                   { src; dst; seq = p.seq; attempt = p.attempts; at });
              t.last_arrival.(src) <- max t.last_arrival.(src) at;
              Engine.at t.engine ~time:at (service t ~src ~dst link ~time:at)
            end
      end

(* Enqueue one packet on the resilient path.  Returns the nominal
   (fault-free) arrival time; the actual landing may be later. *)
let post_resilient t ~now ~src ~dst ~off (mem : Mem.t) ~pos ~len : int =
  let words = (len + 3) / 4 in
  let nominal = route_arrival t ~now ~src ~dst ~words in
  set_link_last t ~src ~dst nominal;
  let link = t.links.(src).(dst) in
  let data = Mem.to_bytes mem ~pos ~len in
  let p =
    {
      seq = link.next_seq;
      off;
      data;
      csum = Fault.checksum data;
      nominal;
      attempts = 0;
    }
  in
  link.next_seq <- link.next_seq + 1;
  Queue.push p link.q;
  t.outstanding.(src) <- t.outstanding.(src) + 1;
  t.last_arrival.(src) <- max t.last_arrival.(src) nominal;
  t.total_writes <- t.total_writes + 1;
  if Probe.active (Engine.probe t.engine) then
    Probe.emit (Engine.probe t.engine) ~time:now
      (Probe.Noc_post { src; dst; off; bytes = len; arrival = nominal });
  if not link.busy then begin
    link.busy <- true;
    Engine.at t.engine ~time:nominal (service t ~src ~dst link ~time:nominal)
  end;
  nominal

(* ---------------- public posting interface ---------------- *)

(* Book-keep one fault-free posted write landing at [arrival] and stage
   its payload in the delivery arena. *)
let post_plain t ~now ~src ~dst ~off ~arrival (mem : Mem.t) ~pos ~len =
  t.outstanding.(src) <- t.outstanding.(src) + 1;
  t.last_arrival.(src) <- max t.last_arrival.(src) arrival;
  t.total_writes <- t.total_writes + 1;
  if Probe.active (Engine.probe t.engine) then
    Probe.emit (Engine.probe t.engine) ~time:now
      (Probe.Noc_post { src; dst; off; bytes = len; arrival });
  let i = alloc_delivery t ~src ~dst ~off ~len in
  Mem.blit mem pos t.d_buf.(i) 0 len;
  Engine.at_indexed t.engine ~time:arrival t.deliver_fn i

(* Post [len] bytes of [mem] at [pos] to offset [off] of tile [dst]'s
   local memory.  Returns the arrival time.  The caller charges the
   injection cost. *)
let post_write t ~src ~dst ~off (mem : Mem.t) ~pos ~len : int =
  if src = dst then invalid_arg "Noc.post_write: src = dst";
  let now = Engine.now t.engine in
  if Fault.enabled t.fault then
    post_resilient t ~now ~src ~dst ~off mem ~pos ~len
  else begin
    let words = (len + 3) / 4 in
    (* FIFO per link: never deliver before an earlier write on this link *)
    let arrival = route_arrival t ~now ~src ~dst ~words in
    set_link_last t ~src ~dst arrival;
    post_plain t ~now ~src ~dst ~off ~arrival mem ~pos ~len;
    arrival
  end

(* Multicast burst: one injection delivers the same payload to several
   tiles.  The sender frames a single burst (one header flit plus the
   payload, counted by the caller) and the ring circulates it; every
   destination still receives its copy after its own link latency and the
   per-link FIFO is preserved, so delivery semantics are identical to a
   sequence of unicast posts — only the injection side is cheaper.
   Under faults each destination's copy fails and retries independently.
   Returns the latest nominal arrival time. *)
let post_multicast t ~src ~dsts ~off (mem : Mem.t) ~pos ~len : int =
  let now = Engine.now t.engine in
  let words = (len + 3) / 4 in
  let last = ref now in
  let faulty = Fault.enabled t.fault in
  List.iter
    (fun dst ->
      if dst = src then invalid_arg "Noc.post_multicast: src in dsts";
      let arrival =
        if faulty then post_resilient t ~now ~src ~dst ~off mem ~pos ~len
        else begin
          let arrival = route_arrival t ~now ~src ~dst ~words in
          set_link_last t ~src ~dst arrival;
          post_plain t ~now ~src ~dst ~off ~arrival mem ~pos ~len;
          arrival
        end
      in
      last := max !last arrival)
    dsts;
  !last

(* Unordered variant with caller-chosen latency (Fig. 1 machine).  This
   models a raw memory path, not the sequenced link protocol, so the
   fault plane does not apply to it. *)
let post_write_at t ~src ~dst ~off ~latency (mem : Mem.t) ~pos ~len : int =
  let now = Engine.now t.engine in
  let arrival = now + latency in
  post_plain t ~now ~src ~dst ~off ~arrival mem ~pos ~len;
  arrival

let injection_cost t ~len =
  let words = (len + 3) / 4 in
  t.cfg.Config.noc_word_cycles * words

(* Cycles the source must wait for all of its posted writes to land.

   [last_arrival] is extended every time a retransmission or relay
   delivery is scheduled, so under faults this covers retries currently
   in flight — but a retry scheduled *after* this call (a failure drawn
   at a future attempt) can extend it again.  A full drain therefore
   re-checks [outstanding] after waiting (see [Machine.noc_drain]); the
   wait returned here is exact only when the fault plane is off. *)
let drain_wait t ~src =
  if t.outstanding.(src) = 0 then 0
  else max 0 (t.last_arrival.(src) - Engine.now t.engine)

(* In-flight posted writes of [src], counting packets queued for
   retransmission and relay deliveries — a packet stays outstanding until
   its payload actually lands in the destination memory. *)
let outstanding t ~src = t.outstanding.(src)

let link_dead t ~src ~dst =
  Fault.enabled t.fault && t.links.(src).(dst).dead

let fault t = t.fault
