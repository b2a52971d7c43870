(* The reference history checker: the executable specification the
   incremental [History.check] is pinned against.

   It issues every event through [Execution.execute], building the full
   execution DAG, and answers every read with [Observe.readable_writes] —
   Def. 12 read straight off the Table-I relations.  Its cost grows
   superlinearly with the history, so it is a test oracle only: the
   qcheck equivalence properties compare [History.check] against it, and
   callers that need the DAG itself (e.g. for [Observe.race_free]) take
   it from [exec]. *)

open Pmc_model
open History

type full_report = { exec : Execution.t; full_violations : violation list }

let full_ok r = r.full_violations = []

(* [writes_seen] remembers, per (proc, loc), the id of the write the last
   read of that proc/loc observed, for the monotonicity check. *)
let check_reference ?(require_locked_writes = false) ?(init = fun _ -> 0)
    ~procs ~locs (events : event list) : full_report =
  let exec = Execution.create ~init ~procs ~locs () in
  let holder = Array.make locs None in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let writes_seen = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev with
      | E_fence { proc } -> ignore (Execution.fence exec ~proc)
      | E_acquire { proc; loc } ->
          (match holder.(loc) with
          | Some h -> add (Double_acquire { loc; holder = h; proc })
          | None -> ());
          holder.(loc) <- Some proc;
          ignore (Execution.acquire exec ~proc ~loc)
      | E_release { proc; loc } ->
          (match holder.(loc) with
          | Some h when h = proc -> holder.(loc) <- None
          | _ -> add (Release_not_held { loc; proc }));
          ignore (Execution.release exec ~proc ~loc)
      | E_acquire_ro { proc; loc } ->
          (* read-only entry: synchronizes with the last exclusive release
             of the location (the same Table-I acquire edges) but takes no
             lock, so any number may be held concurrently *)
          ignore (Execution.acquire exec ~proc ~loc)
      | E_release_ro { proc; loc } ->
          (* read-only exit: later exclusive acquires are ≺S-after it
             (writers wait for readers), with no holder bookkeeping *)
          ignore (Execution.release exec ~proc ~loc)
      | E_write { proc; loc; value } ->
          if require_locked_writes && holder.(loc) <> Some proc then
            add
              (Write_outside_lock
                 { op = { id = -1; kind = Op.Write; proc; loc; value } });
          ignore (Execution.write exec ~proc ~loc ~value)
      | E_read { proc; loc; value } ->
          let o = Execution.read exec ~proc ~loc ~value in
          let readable = Observe.readable_writes exec o in
          (match
             List.filter (fun (w : Op.t) -> w.Op.value = value) readable
           with
          | [] ->
              add
                (Unreadable_value
                   {
                     op = o;
                     readable =
                       List.sort_uniq compare
                         (List.map (fun (w : Op.t) -> w.Op.value) readable);
                   })
          | ws ->
              (* Monotonicity: the newly observed write must not be ordered
                 strictly before the one the previous read observed. *)
              let key = (proc, loc) in
              (match Hashtbl.find_opt writes_seen key with
              | Some prev_write_id
                when
                  (* one backward pass from the previously observed write
                     answers w ≺ prev for every candidate at once *)
                  let anc_prev =
                    Dag.ancestors (Order.View proc) exec prev_write_id
                  in
                  List.for_all
                    (fun (w : Op.t) -> anc_prev.(w.Op.id))
                    ws ->
                  add
                    (Non_monotonic_reads
                       {
                         first = Execution.op exec prev_write_id;
                         second = o;
                       })
              | _ -> ());
              (* Remember the oldest candidate conservatively. *)
              (match ws with
              | w :: _ -> Hashtbl.replace writes_seen key w.Op.id
              | [] -> ())))
    events;
  if not (Dag.is_acyclic exec) then add Cyclic_order;
  { exec; full_violations = List.rev !violations }
