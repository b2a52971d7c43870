(* Online dynamic data-race detection over recorded traces, FastTrack
   style (vector clocks with last-write epochs).

   Happens-before is derived from the sync the trace makes explicit —
   exactly the PMC position that annotations carry every required
   ordering:

     - entry_x / entry_ro of object o joins o's release clock into the
       entering core's clock (the ≺S edge from the previous exit_x);
     - exit_x of o publishes the core's clock as o's release clock and
       advances the core's epoch.

   A pair of conflicting accesses (same object and word, at least one a
   write, different cores) that are unordered by this happens-before
   relation is a candidate race.  It is *reported* only when at least one
   of the two accesses happened outside any entry/exit scope of its
   object: scoped conflicts are either serialized by the object's lock
   (write/write) or sanctioned by the model (an entry_ro poll racing an
   exclusive writer is the Fig. 6/Fig. 9 pattern, handled by the readable
   set of Def. 12, not an error).  What remains is precisely the class of
   bugs the static [Pmc_compile.Check] pass cannot see — accesses whose
   annotations are missing at run time — and which the litmus-level
   [Pmc_model.Drf] cannot see either, because it only enumerates small
   litmus programs, not real back-end runs.

   Detection is relative to the observed interleaving, as for every
   dynamic race detector: a race is reported with the two concrete
   conflicting accesses and their cores.  Every access, byte or word, is
   checked at the granularity of its containing word, [byte / 4]
   (conservative: two distinct bytes of one word may be flagged; the
   model's indivisible unit is the byte, and [Replay] lowers byte-wise
   objects per byte, but no workload in this repository writes sibling
   bytes from different cores unannotated). *)

type access = {
  core : int;
  time : int;
  seq : int;
  is_write : bool;
  scoped : bool;  (* inside an entry/exit pair of the object *)
  value : int;    (* as the trace carries it: a word's sign-extended *)
}

type race = {
  obj : Event.obj;
  word : int;
  first : access;   (* earlier access in issue order *)
  second : access;
}

let pp_access ppf (a : access) =
  Fmt.pf ppf "%s by core %d at t=%d%s (value %d)"
    (if a.is_write then "write" else "read")
    a.core a.time
    (if a.scoped then "" else ", UNANNOTATED")
    a.value

let pp_race ppf (r : race) =
  Fmt.pf ppf "@[<v2>data race on %s#%d word %d:@,%a@,%a@]" r.obj.Event.name
    r.obj.Event.id r.word pp_access r.first pp_access r.second

(* ---------------- vector clocks ---------------- *)

let vc_create n = Array.make n 0

let vc_join dst src =
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

type cell = {
  c_obj : Event.obj;
  mutable last_write : (int * access) option;  (* epoch clock, access *)
  reads : (int, int * access) Hashtbl.t;       (* core -> epoch clock, access *)
}

type t = {
  cores : int;
  clocks : int array array;                 (* C.(c) *)
  locks : (int, int array) Hashtbl.t;       (* object id -> release clock *)
  scopes : (int, int) Hashtbl.t array;      (* per core: obj id -> depth *)
  cells : (int * int, cell) Hashtbl.t;      (* (obj id, word) -> state *)
  seen : (int * int * int * int * bool * bool, unit) Hashtbl.t;
  mutable races : race list;                (* newest first *)
  mutable race_count : int;
  max_reports : int;
}

let create ?(max_reports = 1000) ~cores () =
  let clocks = Array.init cores (fun _ -> vc_create cores) in
  (* start every core at epoch 1 so clock 0 means "never synchronized" *)
  Array.iteri (fun c v -> v.(c) <- 1) clocks;
  {
    cores;
    clocks;
    locks = Hashtbl.create 64;
    scopes = Array.init cores (fun _ -> Hashtbl.create 8);
    cells = Hashtbl.create 1024;
    seen = Hashtbl.create 64;
    races = [];
    race_count = 0;
    max_reports;
  }

let lock_clock t oid =
  match Hashtbl.find_opt t.locks oid with
  | Some v -> v
  | None ->
      let v = vc_create t.cores in
      Hashtbl.add t.locks oid v;
      v

let scope_depth t ~core oid =
  Option.value ~default:0 (Hashtbl.find_opt t.scopes.(core) oid)

let enter_scope t ~core oid =
  Hashtbl.replace t.scopes.(core) oid (scope_depth t ~core oid + 1)

let leave_scope t ~core oid =
  let d = scope_depth t ~core oid - 1 in
  if d <= 0 then Hashtbl.remove t.scopes.(core) oid
  else Hashtbl.replace t.scopes.(core) oid d

let cell t (obj : Event.obj) word =
  let key = (obj.Event.id, word) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = { c_obj = obj; last_write = None; reads = Hashtbl.create 4 } in
      Hashtbl.add t.cells key c;
      c

let report t (c : cell) word (first : access) (second : access) =
  (* one report per (cell, core pair, kind pair) keeps poll loops from
     flooding the output with copies of the same race *)
  let key =
    ( c.c_obj.Event.id, word,
      min first.core second.core, max first.core second.core,
      first.is_write, second.is_write )
  in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.race_count <- t.race_count + 1;
    if List.length t.races < t.max_reports then
      t.races <- { obj = c.c_obj; word; first; second } :: t.races
  end

(* Did [prev]'s epoch (clock [pt] on core [pc]) happen before the current
   clock of [core]? *)
let ordered t ~pc ~pt ~core = pt <= t.clocks.(core).(pc)

let racy (a : access) (b : access) = not (a.scoped && b.scoped)

let on_access t (obj : Event.obj) word (acc : access) =
  let c = cell t obj word in
  let core = acc.core in
  (match c.last_write with
  | Some (wt, wacc)
    when wacc.core <> core
         && (not (ordered t ~pc:wacc.core ~pt:wt ~core))
         && racy wacc acc ->
      report t c word wacc acc
  | _ -> ());
  if acc.is_write then begin
    Hashtbl.iter
      (fun rc (rt, racc) ->
        if
          rc <> core
          && (not (ordered t ~pc:rc ~pt:rt ~core))
          && racy racc acc
        then report t c word racc acc)
      c.reads;
    c.last_write <- Some (t.clocks.(core).(core), acc);
    Hashtbl.reset c.reads
  end
  else Hashtbl.replace c.reads core (t.clocks.(core).(core), acc)

let feed t (e : Event.t) =
  let core = e.Event.core in
  if core >= 0 && core < t.cores then
    match e.Event.kind with
    | Event.Annot { ann = Event.Entry_x | Event.Entry_ro; obj = Some o } ->
        vc_join t.clocks.(core) (lock_clock t o.Event.id);
        enter_scope t ~core o.Event.id
    | Event.Annot { ann = Event.Exit_x; obj = Some o } ->
        let l = lock_clock t o.Event.id in
        Array.blit t.clocks.(core) 0 l 0 t.cores;
        t.clocks.(core).(core) <- t.clocks.(core).(core) + 1;
        leave_scope t ~core o.Event.id
    | Event.Annot { ann = Event.Exit_ro; obj = Some o } ->
        leave_scope t ~core o.Event.id
    | Event.Annot _ -> ()
    | Event.Read { obj; byte; value; _ } ->
        on_access t obj (byte / 4)
          { core; time = e.Event.time; seq = e.Event.seq; is_write = false;
            scoped = scope_depth t ~core obj.Event.id > 0; value }
    | Event.Write { obj; byte; value; _ } ->
        on_access t obj (byte / 4)
          { core; time = e.Event.time; seq = e.Event.seq; is_write = true;
            scoped = scope_depth t ~core obj.Event.id > 0; value }
    | Event.Init _ ->
        (* untimed pre-run initialization, ordered before every task *)
        ()
    | Event.Probe _ ->
        (* back-end-level events; synchronization is derived from the
           architecture-independent annotation events above.  Faults in
           particular are transport-level noise the resilient protocol
           hides from the memory model. *)
        ()

let races t = List.rev t.races
let race_count t = t.race_count

let check ?max_reports ~cores (events : Event.t list) : race list =
  let t = create ?max_reports ~cores () in
  List.iter (feed t) events;
  races t
