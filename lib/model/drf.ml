(* Data-race-freedom analysis and the SC-simulation property.

   A program is data-race free when no sequentially consistent run contains
   two conflicting accesses (same location, at least one write, different
   processes) that are unordered in the PMC execution order ≺ built from
   that run.  For DRF programs the paper argues (via Processor Consistency
   [Ahamad et al. 93]) that PMC with proper annotations behaves like SC;
   [sc_equivalent] checks the observable version of that claim by comparing
   enumerated outcome sets. *)

type access = { proc : int; loc : int; is_write : bool; op_id : int }

type race = { loc : int; a : access; b : access }

let pp_race ppf r =
  Fmt.pf ppf "race on v%d: p%d %s / p%d %s" r.loc r.a.proc
    (if r.a.is_write then "write" else "read")
    r.b.proc
    (if r.b.is_write then "write" else "read")

exception Too_many_traces of int

(* Enumerate every SC trace of [p] (depth-first over interleavings, each
   step taken by [Models.Sc.step]) and detect races on each.  Returns the
   first race found, or None.  Traces are exponential in program size;
   litmus programs are small enough, and past [limit] traces the walk
   raises rather than answer for a program it has not finished. *)
let find_race ?(limit = 200_000) (p : Lprog.t) : race option =
  let n = Lprog.n_threads p in
  let traces_seen = ref 0 in
  let exception Found of race in
  let rec go st (events : History.event list) =
    let stepped = ref false in
    for t = 0 to n - 1 do
      match Models.Sc.step p st t with
      | None -> ()
      | Some st' ->
          stepped := true;
          go st'
            (match Models.Sc.event p st t with
            | Some e -> e :: events
            | None -> events)
    done;
    if not !stepped then begin
      incr traces_seen;
      if !traces_seen > limit then raise (Too_many_traces limit);
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
              { proc; loc; is_write = false; op_id = o.Op.id } :: !accesses
        | History.E_write { proc; loc; value } ->
            let o = Execution.write exec ~proc ~loc ~value in
            accesses :=
              { proc; loc; is_write = true; op_id = o.Op.id } :: !accesses
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
      | a :: rest ->
          List.iter
            (fun b ->
              if
                a.proc <> b.proc && a.loc = b.loc
                && (a.is_write || b.is_write)
                && Order.concurrent Order.Full exec a.op_id b.op_id
              then raise (Found { loc = a.loc; a; b }))
            rest;
          pairs rest
    in
    pairs !accesses
  in
  match go (Models.Sc.init p) [] with
  | () -> None
  | exception Found r -> Some r

let is_drf ?limit p = find_race ?limit p = None

(* Observable SC-simulation: the outcome set under the PMC semantics equals
   the outcome set under SC.  The paper's Section IV-E claims this for
   data-race-free programs. *)
let sc_equivalent ?limit (p : Lprog.t) : bool =
  let sc = Litmus.enumerate ?limit (module Models.Sc) p in
  let pmc = Litmus.enumerate ?limit (module Models.Pmc) p in
  Lprog.Outcome_set.equal sc.Litmus.outcomes pmc.Litmus.outcomes
