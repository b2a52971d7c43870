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
   simulator's [Pmc_sim.Probe] sink); [detach] restores them.  A probe
   event is recorded as it is, on the ring of the core [Probe.core]
   names.  The global [seq] counter stamps emission order, which on the
   deterministic single-threaded engine *is* issue order — [events]
   returns the merged timeline sorted by it. *)

open Pmc_sim

let dummy_event : Event.t =
  { Event.seq = -1; time = 0; core = 0;
    kind = Event.Probe (Probe.Task { core = 0; op = Probe.Spawn }) }

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
    | Pmc.Api.Ev_read { obj = o; width; byte; value } ->
        Event.Read { obj = obj o; width; byte; value }
    | Pmc.Api.Ev_write { obj = o; width; byte; value } ->
        Event.Write { obj = obj o; width; byte; value }
    | Pmc.Api.Ev_init (o, word, value) ->
        Event.Init { obj = obj o; word; value }
  in
  push t ~core ~time kind

let probe_sink t ~time ev = push t ~core:(Probe.core ev) ~time (Event.Probe ev)

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
