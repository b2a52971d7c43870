(* The reference race finder: a second, self-contained SC interpreter
   (pc, registers, memory and lock arrays threaded through a depth-first
   walk over interleavings) feeding the same per-trace race test as
   [Drf.find_race].  The qcheck property in [Test_litmus] pins the
   library walk over [Models.Sc.step] against it: the same first race,
   or none.  It answers [None] when it runs out of traces, so callers
   keep their programs below [limit]. *)

open Pmc_model

let find_race ?(limit = 200_000) (p : Lprog.t) : Drf.race option =
  let n = Lprog.n_threads p in
  let traces_seen = ref 0 in
  let exception Found of Drf.race in
  let exception Limit in
  (* SC machine state threaded through the search *)
  let rec go pc regs mem locks (events : History.event list) =
    let stepped = ref false in
    for t = 0 to n - 1 do
      let th = p.Lprog.threads.(t) in
      if pc.(t) < Array.length th then begin
        let adv = Array.copy pc in
        adv.(t) <- adv.(t) + 1;
        match th.(pc.(t)) with
        | Lprog.Ld { loc; reg } ->
            stepped := true;
            let regs' = Models.clone2 regs in
            regs'.(t).(reg) <- mem.(loc);
            go adv regs' mem locks
              (History.E_read { proc = t; loc; value = mem.(loc) } :: events)
        | Lprog.St { loc; v } ->
            stepped := true;
            let mem' = Array.copy mem in
            mem'.(loc) <- Lprog.eval regs.(t) v;
            go adv regs mem' locks
              (History.E_write { proc = t; loc; value = mem'.(loc) }
              :: events)
        | Lprog.Wait_eq { loc; v } ->
            if mem.(loc) = v then begin
              stepped := true;
              go adv regs mem locks
                (History.E_read { proc = t; loc; value = v } :: events)
            end
        | Lprog.Acq l ->
            if locks.(l) = -1 then begin
              stepped := true;
              let locks' = Array.copy locks in
              locks'.(l) <- t;
              go adv regs mem locks'
                (History.E_acquire { proc = t; loc = l } :: events)
            end
        | Lprog.Rel l ->
            if locks.(l) = t then begin
              stepped := true;
              let locks' = Array.copy locks in
              locks'.(l) <- -1;
              go adv regs mem locks'
                (History.E_release { proc = t; loc = l } :: events)
            end
        | Lprog.Fence ->
            stepped := true;
            go adv regs mem locks (History.E_fence { proc = t } :: events)
        | Lprog.Flush _ ->
            stepped := true;
            go adv regs mem locks events
      end
    done;
    if not !stepped then begin
      incr traces_seen;
      if !traces_seen > limit then raise Limit;
      check_trace (List.rev events)
    end
  and check_trace events =
    let exec = Execution.create ~procs:n ~locs:p.Lprog.locs () in
    let accesses = ref [] in
    List.iter
      (fun ev ->
        match ev with
        | History.E_read { proc; loc; value } ->
            let o = Execution.read exec ~proc ~loc ~value in
            accesses :=
              { Drf.proc; loc; is_write = false; op_id = o.Op.id }
              :: !accesses
        | History.E_write { proc; loc; value } ->
            let o = Execution.write exec ~proc ~loc ~value in
            accesses :=
              { Drf.proc; loc; is_write = true; op_id = o.Op.id }
              :: !accesses
        | History.E_acquire { proc; loc } | History.E_acquire_ro { proc; loc }
          ->
            ignore (Execution.acquire exec ~proc ~loc)
        | History.E_release { proc; loc } | History.E_release_ro { proc; loc }
          ->
            ignore (Execution.release exec ~proc ~loc)
        | History.E_fence { proc } -> ignore (Execution.fence exec ~proc))
      events;
    let rec pairs = function
      | [] -> ()
      | (a : Drf.access) :: rest ->
          List.iter
            (fun (b : Drf.access) ->
              if
                a.proc <> b.proc && a.loc = b.loc
                && (a.is_write || b.is_write)
                && Order.concurrent Order.Full exec a.op_id b.op_id
              then raise (Found { Drf.loc = a.loc; a; b }))
            rest;
          pairs rest
    in
    pairs !accesses
  in
  try
    go
      (Array.make n 0)
      (Array.make_matrix n p.Lprog.regs 0)
      (Array.make p.Lprog.locs 0)
      (Array.make p.Lprog.locs (-1))
      [];
    None
  with
  | Found r -> Some r
  | Limit -> None

