(* Lowering of a captured trace into the formal model's history language,
   so that *actual* back-end runs — not just hand-built unit-test traces —
   are mechanically validated PMC-consistent by [Pmc_model.History.check].

   The mapping follows the model's view of locations:

     - each (object, word) pair is one model location, except that an
       object the trace accesses byte-wise anywhere is lowered at byte
       granularity, one location per (object, byte): bytes are the
       model's indivisible unit (Sec. IV-A), and a word access to such
       an object becomes four lane accesses, byte 0 the least
       significant.  Word-only objects keep one location per word;
     - entry_x / exit_x become acquire / release of every location of
       the object (the object's lock implements ≺S for all of them);
     - entry_ro / exit_ro become the model's read-only acquire / release:
       the same ≺S edges, without the mutual-exclusion bookkeeping.  The
       edges matter — a reader synchronizing only through an RO scope
       (e.g. neighbour strips after a barrier) would otherwise have no
       ordered-before writes and every observed value would look
       unreadable;
     - accesses map one to one per location, carrying the observed value;
     - fences map to the model's fence;
     - initialization pokes establish each location's initial value,
       passed to the checker as [~init] (the model treats it as a write
       ordered before every operation);
     - probe events (lock, NoC, cache, task, fault) are back-end
       mechanics below the model's vocabulary and are skipped.

   [check] replays the lowered history through the Table-I transition and
   reports every violation: a value some read returned that was not in
   its readable set (Def. 12), non-monotonic reads, broken mutual
   exclusion, cyclic ≺. *)

open Pmc_model

type lowering = {
  events : History.event list;
  locs : int;            (* distinct model locations *)
  init : int -> int;     (* initial value of each location (pokes) *)
  skipped : int;         (* trace events with no model counterpart *)
}

let lower (trace : Event.t list) : lowering =
  (* objects accessed byte-wise anywhere in the trace *)
  let bytewise = Hashtbl.create 8 in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Read { obj; width = 1; _ } | Event.Write { obj; width = 1; _ } ->
          Hashtbl.replace bytewise obj.Event.id ()
      | _ -> ())
    trace;
  let locs = Hashtbl.create 64 in
  let next_loc = ref 0 in
  (* [unit] is a word index, or a byte offset in a byte-wise object *)
  let loc_of (o : Event.obj) unit =
    let key = (o.Event.id, unit) in
    match Hashtbl.find_opt locs key with
    | Some l -> l
    | None ->
        let l = !next_loc in
        incr next_loc;
        Hashtbl.add locs key l;
        l
  in
  (* a word-only trace, the common case, skips the lookup *)
  let is_bytewise (o : Event.obj) =
    Hashtbl.length bytewise > 0 && Hashtbl.mem bytewise o.Event.id
  in
  let skipped = ref 0 in
  let inits = Hashtbl.create 64 in
  let out = ref [] in
  let push e = out := e :: !out in
  (* a byte-wise object has one location per byte of its words *)
  let units (o : Event.obj) =
    if is_bytewise o then 4 * o.Event.words else o.Event.words
  in
  (* byte [l] of [value], least significant first *)
  let lane value l = (value lsr (8 * l)) land 0xff in
  List.iter
    (fun (e : Event.t) ->
      let proc = e.Event.core in
      match e.Event.kind with
      | Event.Annot { ann = Event.Entry_x; obj = Some o } ->
          for u = 0 to units o - 1 do
            push (History.E_acquire { proc; loc = loc_of o u })
          done
      | Event.Annot { ann = Event.Exit_x; obj = Some o } ->
          for u = 0 to units o - 1 do
            push (History.E_release { proc; loc = loc_of o u })
          done
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          for u = 0 to units o - 1 do
            push (History.E_acquire_ro { proc; loc = loc_of o u })
          done
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } ->
          for u = 0 to units o - 1 do
            push (History.E_release_ro { proc; loc = loc_of o u })
          done
      | Event.Annot { ann = Event.Fence; _ } ->
          push (History.E_fence { proc })
      | Event.Read { obj; width; byte; value } ->
          if is_bytewise obj then
            for l = 0 to width - 1 do
              push
                (History.E_read
                   { proc; loc = loc_of obj (byte + l); value = lane value l })
            done
          else push (History.E_read { proc; loc = loc_of obj (byte / 4); value })
      | Event.Write { obj; width; byte; value } ->
          if is_bytewise obj then
            for l = 0 to width - 1 do
              push
                (History.E_write
                   { proc; loc = loc_of obj (byte + l); value = lane value l })
            done
          else
            push (History.E_write { proc; loc = loc_of obj (byte / 4); value })
      | Event.Init { obj; word; value } ->
          let value = Int32.to_int value in
          if is_bytewise obj then
            for l = 0 to 3 do
              Hashtbl.replace inits (loc_of obj ((4 * word) + l)) (lane value l)
            done
          else Hashtbl.replace inits (loc_of obj word) value
      | Event.Annot _ -> ()
      | Event.Probe _ -> incr skipped)
    trace;
  let init loc = Option.value ~default:0 (Hashtbl.find_opt inits loc) in
  { events = List.rev !out; locs = !next_loc; init; skipped = !skipped }

let check ?require_locked_writes ~cores (trace : Event.t list) :
    History.report =
  let l = lower trace in
  History.check ?require_locked_writes ~init:l.init ~procs:cores
    ~locs:(max 1 l.locs) l.events
