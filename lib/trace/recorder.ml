(* Bounded trace recording.

   One ring buffer per core, so a hot core cannot evict another core's
   history, and a fixed [capacity] per ring, so tracing is safe on
   arbitrarily long benches: when a ring fills, the oldest events are
   overwritten and counted in [dropped].  Consumers that need a complete
   trace (model replay, race checking) should check [dropped_total] and
   raise capacity — the CLI does.

   A ring starts small and doubles up to its capacity, so a short run
   pays for the events it records, not for [capacity] slots per core
   (filling four 65,536-slot arrays cost a crash experiment ~2.7 ms, more
   than simulating it).  Growth happens only while the ring has never
   wrapped, so the doubled buffer keeps the oldest-first order at index 0
   and overflow behaves exactly as a preallocated ring's.

   [attach] claims both hooks (the [Pmc.Api] trace callback and the
   simulator's [Pmc_sim.Probe] sink); [detach] restores them.  The global
   [seq] counter stamps emission order, which on the deterministic
   single-threaded engine *is* issue order — [events] returns the merged
   timeline sorted by it. *)

open Pmc_sim

let dummy_event : Event.t =
  { Event.seq = -1; time = 0; core = 0; kind = Event.Task { op = Event.Spawn } }

module Ring = struct
  type t = {
    capacity : int;
    mutable buf : Event.t array;
    mutable len : int;    (* number of valid entries *)
    mutable head : int;   (* next write position *)
    mutable dropped : int;
  }

  let initial_slots = 64

  let create capacity =
    if capacity <= 0 then invalid_arg "Recorder.Ring.create: capacity";
    {
      capacity;
      buf = Array.make (min capacity initial_slots) dummy_event;
      len = 0;
      head = 0;
      dropped = 0;
    }

  (* Only a ring that never wrapped is full below its capacity, and such
     a ring holds its events oldest first from index 0. *)
  let grow r =
    let size = Array.length r.buf in
    let buf = Array.make (min r.capacity (2 * size)) dummy_event in
    Array.blit r.buf 0 buf 0 size;
    r.buf <- buf;
    r.head <- size

  let push r (e : Event.t) =
    if r.len = Array.length r.buf && r.len < r.capacity then grow r;
    let size = Array.length r.buf in
    r.buf.(r.head) <- e;
    r.head <- (r.head + 1) mod size;
    if r.len < size then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

  (* Oldest-first contents of the ring. *)
  let to_list r =
    let size = Array.length r.buf in
    let start = (r.head - r.len + size) mod size in
    List.init r.len (fun i -> r.buf.((start + i) mod size))

  let recorded r = r.len
  let dropped r = r.dropped
end

type t = {
  api : Pmc.Api.t;
  machine : Machine.t;
  rings : Ring.t array;
  mutable seq : int;
  mutable attached : bool;
}

let default_capacity = 1 lsl 16

let push t ~core ~time kind =
  let core = if core < 0 || core >= Array.length t.rings then 0 else core in
  Ring.push t.rings.(core) { Event.seq = t.seq; time; core; kind };
  t.seq <- t.seq + 1

let api_hook t ~core (ev : Pmc.Api.event) =
  (* host-context events (core -1, e.g. initialization pokes) happen
     outside any task, where the engine has no current time *)
  let time = if core < 0 then 0 else Machine.now t.machine in
  let obj o = Event.obj_of_shared o in
  let kind =
    match ev with
    | Pmc.Api.Ev_entry (Pmc.Api.X, o) ->
        Event.Annot { ann = Event.Entry_x; obj = Some (obj o) }
    | Pmc.Api.Ev_entry (Pmc.Api.Ro, o) ->
        Event.Annot { ann = Event.Entry_ro; obj = Some (obj o) }
    | Pmc.Api.Ev_exit (Pmc.Api.X, o) ->
        Event.Annot { ann = Event.Exit_x; obj = Some (obj o) }
    | Pmc.Api.Ev_exit (Pmc.Api.Ro, o) ->
        Event.Annot { ann = Event.Exit_ro; obj = Some (obj o) }
    | Pmc.Api.Ev_fence -> Event.Annot { ann = Event.Fence; obj = None }
    | Pmc.Api.Ev_flush o ->
        Event.Annot { ann = Event.Flush; obj = Some (obj o) }
    | Pmc.Api.Ev_read (o, word, value) ->
        Event.Read { obj = obj o; word; value }
    | Pmc.Api.Ev_write (o, word, value) ->
        Event.Write { obj = obj o; word; value }
    | Pmc.Api.Ev_read8 (o, byte, value) ->
        Event.Read8 { obj = obj o; byte; value }
    | Pmc.Api.Ev_write8 (o, byte, value) ->
        Event.Write8 { obj = obj o; byte; value }
    | Pmc.Api.Ev_init (o, word, value) ->
        Event.Init { obj = obj o; word; value }
  in
  push t ~core ~time kind

let probe_sink t ~time (ev : Probe.event) =
  match ev with
  | Probe.Noc_post { src; dst; off; bytes; arrival } ->
      push t ~core:src ~time (Event.Noc_post { src; dst; off; bytes; arrival })
  | Probe.Cache_maint { core; op; addr; len; lines_touched;
                        lines_written_back } ->
      let op =
        match op with
        | Probe.Wb_inval -> Event.Wb_inval
        | Probe.Inval -> Event.Inval
      in
      push t ~core ~time
        (Event.Cache_maint { op; addr; len; lines_touched; lines_written_back })
  | Probe.Lock { core; lock; op; transferred } ->
      let op =
        match op with
        | Probe.Acquire -> Event.Acquire
        | Probe.Release -> Event.Release
        | Probe.Acquire_ro -> Event.Acquire_ro
        | Probe.Release_ro -> Event.Release_ro
      in
      push t ~core ~time (Event.Lock { lock; op; transferred })
  | Probe.Task { core; op } ->
      let op =
        match op with Probe.Spawn -> Event.Spawn | Probe.Finish -> Event.Finish
      in
      push t ~core ~time (Event.Task { op })
  | Probe.Fault f ->
      (* NoC faults are attributed to the sending core (the side that
         owns the retransmission protocol), the rest to the faulting
         core itself. *)
      let core, kind, detail =
        match f with
        | Probe.F_noc_drop { src; dst; seq; attempt } ->
            ( src, Event.Noc_drop,
              Printf.sprintf "%d>%d seq=%d attempt=%d" src dst seq attempt )
        | Probe.F_noc_corrupt { src; dst; seq; attempt } ->
            ( src, Event.Noc_corrupt,
              Printf.sprintf "%d>%d seq=%d attempt=%d" src dst seq attempt )
        | Probe.F_noc_delay { src; dst; seq; cycles } ->
            ( src, Event.Noc_delay,
              Printf.sprintf "%d>%d seq=%d +%d" src dst seq cycles )
        | Probe.F_noc_retry { src; dst; seq; attempt; at } ->
            ( src, Event.Noc_retry,
              Printf.sprintf "%d>%d seq=%d attempt=%d at=%d" src dst seq
                attempt at )
        | Probe.F_link_dead { src; dst } ->
            (src, Event.Link_dead, Printf.sprintf "%d>%d" src dst)
        | Probe.F_noc_degraded { src; dst; seq } ->
            ( src, Event.Noc_degraded,
              Printf.sprintf "%d>%d seq=%d" src dst seq )
        | Probe.F_sdram_retry { core; attempt } ->
            (core, Event.Sdram_retry, Printf.sprintf "attempt=%d" attempt)
        | Probe.F_tile_stall { core; cycles } ->
            (core, Event.Tile_stall, Printf.sprintf "+%d" cycles)
        | Probe.F_lock_timeout { core; lock; waited } ->
            ( core, Event.Lock_timeout,
              Printf.sprintf "lock#%d waited=%d" lock waited )
        | Probe.F_power_cut { cycle } ->
            (* the cut kills every tile at once; attribute it to core 0 *)
            (0, Event.Power_cut, Printf.sprintf "at=%d" cycle)
      in
      push t ~core ~time (Event.Fault { kind; detail })

let attach ?(capacity = default_capacity) (api : Pmc.Api.t) : t =
  if capacity <= 0 then invalid_arg "Recorder.attach: capacity must be > 0";
  let machine = Pmc.Api.machine api in
  let cores = (Machine.config machine).Config.cores in
  let t =
    {
      api;
      machine;
      rings = Array.init cores (fun _ -> Ring.create capacity);
      seq = 0;
      attached = true;
    }
  in
  Pmc.Api.set_trace api (Some (api_hook t));
  Probe.set (Machine.probe machine) (Some (probe_sink t));
  t

let detach t =
  if t.attached then begin
    t.attached <- false;
    Pmc.Api.set_trace t.api None;
    Probe.set (Machine.probe t.machine) None
  end

let api t = t.api
let cores t = Array.length t.rings
let recorded t = Array.fold_left (fun acc r -> acc + Ring.recorded r) 0 t.rings
let dropped t ~core = Ring.dropped t.rings.(core)
let pushed t ~core = Ring.recorded t.rings.(core) + Ring.dropped t.rings.(core)

let dropped_total t =
  Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings

let events t : Event.t list =
  let all =
    Array.fold_left
      (fun acc r -> List.rev_append (Ring.to_list r) acc)
      [] t.rings
  in
  List.sort (fun (a : Event.t) b -> compare a.Event.seq b.Event.seq) all
