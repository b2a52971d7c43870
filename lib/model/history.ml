(* Validation of observed runs against the PMC model.

   A history is the sequence of operations one run of a program actually
   issued, in issue order, with the value each read returned.  [check]
   replays it through the Table-I state transition and verifies:

     - well-formed locking: an acquire takes a free lock; a release is
       issued by the current holder; mutual exclusion holds (Sec. IV-B);
     - every read returned a value readable at its issue point (Def. 12);
     - reads are monotonic: two ordered reads of one process never observe
       writes in opposite order (Def. 12, second clause);
     - the resulting execution stays acyclic (≺ is a partial order).

   The simulator back-ends are tested by feeding their traces through this
   checker: whatever timing a back-end produces, the observable values must
   be explainable by the model.

   [check] is incremental: it never builds the execution DAG (whose
   Table-I edge sets grow quadratically with the history) and instead
   carries per-(process, location) write frontiers across events in
   sparse rows.  Each event costs time proportional to the nonzero
   frontier slots it touches, not to procs² · locs; the live state is
   the nonzero slots plus O(procs · locs) empty rows, and 2 · procs
   more for each (process, location) pair the history touches.  The
   test suite pins it against the original definition — every event
   issued through [Execution.execute], every read answered with Def. 12
   on the resulting DAG (test/history_oracle.ml) — on random histories. *)

type event =
  | E_read of { proc : int; loc : int; value : int }
  | E_write of { proc : int; loc : int; value : int }
  | E_acquire of { proc : int; loc : int }
  | E_release of { proc : int; loc : int }
  | E_acquire_ro of { proc : int; loc : int }
  | E_release_ro of { proc : int; loc : int }
  | E_fence of { proc : int }

type violation =
  | Double_acquire of { loc : int; holder : int; proc : int }
  | Release_not_held of { loc : int; proc : int }
  | Unreadable_value of { op : Op.t; readable : int list }
  | Non_monotonic_reads of { first : Op.t; second : Op.t }
  | Cyclic_order
  | Write_outside_lock of { op : Op.t }

let pp_violation ppf = function
  | Double_acquire { loc; holder; proc } ->
      Fmt.pf ppf "p%d acquired v%d while p%d holds it" proc loc holder
  | Release_not_held { loc; proc } ->
      Fmt.pf ppf "p%d released v%d without holding it" proc loc
  | Unreadable_value { op; readable } ->
      Fmt.pf ppf "%a returned a value outside readable set {%a}" Op.pp op
        Fmt.(list ~sep:comma int)
        readable
  | Non_monotonic_reads { first; second } ->
      Fmt.pf ppf "reads went back in time: %a then %a" Op.pp first Op.pp
        second
  | Cyclic_order -> Fmt.pf ppf "execution order contains a cycle"
  | Write_outside_lock { op } ->
      Fmt.pf ppf "%a issued outside an acquire/release pair" Op.pp op

type report = { violations : violation list }

let ok report = report.violations = []

(* Writes by one process to one location are totally ≺P-ordered (every
   write gains a Program edge from all earlier writes of its (proc, loc)
   bucket), so "which writes to v precede operation x" is always
   per-writer prefix-closed and can be carried as a frontier: one count
   per (writer, location) slot, numbered q·locs+v.  Joining two frontiers
   is a slotwise max.

   The Table-I rules draw an edge into a new operation from *every*
   previous member of a (kind, proc, loc) bucket, so the down-set of a
   new operation is exactly the union of the accumulated down-sets of the
   buckets its rules match.  The checker keeps one running frontier per
   bucket actually consumed by some rule.  Edge kinds are observer-
   filtered: a [Local p] edge is visible only under View p, and every
   local edge into an operation carries the label of the operation's own
   process, so a bucket consumed only through local edges needs just the
   one observer row:

     cw.(p·locs+v)   writes   (w,p,v) — into (p,v) ops via ≺P/≺ℓ
     ca.(p·locs+v)   acquires (A,p,v) — into (p,v) ops via ≺P/≺ℓ
     cr.(p·locs+v)   reads    (r,p,v) — via ≺ℓ only: observer-p row only
     s.(v)           releases (R,∗,v) — into acquires of v via ≺S
     fc.(p)          fences of p — into (w|R|A) of p via ≺F
     fj_ar.(p)       acquires/releases of p — into fences of p via ≺F
     fj_rw.(p)       reads/writes of p — into fences via ≺ℓ: observer-p
                     row only

   The initial operation of each location needs no slot: it precedes
   every read and write of its location under every relation and nothing
   precedes it, so the query sites special-case it instead. *)

(* A frontier row is sparse: the nonzero slots in ascending order, with
   their counts; a missing slot reads as 0.  Replayed traces fill few
   slots (on a 4-core, 514-location stencil trace a join's source row
   holds 0.2 of its 2056 slots on average), so every row operation costs
   the nonzero slots it walks, and an empty row is one small record
   sharing the empty arrays. *)
type row = { mutable keys : int array; mutable vals : int array;
             mutable len : int }

let row_make () = { keys = [||]; vals = [||]; len = 0 }

(* first index whose key is >= k, or r.len *)
let lower_bound r k =
  let lo = ref 0 and hi = ref r.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.keys.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let row_get r k =
  let i = lower_bound r k in
  if i < r.len && r.keys.(i) = k then r.vals.(i) else 0

let reserve r n =
  let cap = Array.length r.keys in
  if n > cap then begin
    let cap' = max n (max 4 (2 * cap)) in
    let keys = Array.make cap' 0 and vals = Array.make cap' 0 in
    Array.blit r.keys 0 keys 0 r.len;
    Array.blit r.vals 0 vals 0 r.len;
    r.keys <- keys;
    r.vals <- vals
  end

(* slot k := max (slot k) v *)
let row_max r k v =
  let i = lower_bound r k in
  if i < r.len && r.keys.(i) = k then begin
    if v > r.vals.(i) then r.vals.(i) <- v
  end
  else begin
    reserve r (r.len + 1);
    Array.blit r.keys i r.keys (i + 1) (r.len - i);
    Array.blit r.vals i r.vals (i + 1) (r.len - i);
    r.keys.(i) <- k;
    r.vals.(i) <- v;
    r.len <- r.len + 1
  end

(* dst := slotwise max dst src.  Most joins change nothing, so a first
   pass only counts the slots src adds and checks whether any count
   grows, and returns without writing when neither happens; otherwise
   one reserve makes room and the union is merged from the back, in
   place. *)
let join dst src =
  let sn = src.len and sk = src.keys and sv = src.vals in
  let dn = dst.len and dk = dst.keys and dv = dst.vals in
  (* accesses are unchecked: a row's len never exceeds its capacity *)
  let fresh = ref 0 and grows = ref false and i = ref 0 in
  for j = 0 to sn - 1 do
    let k = Array.unsafe_get sk j in
    while !i < dn && Array.unsafe_get dk !i < k do
      incr i
    done;
    if !i < dn && Array.unsafe_get dk !i = k then begin
      if Array.unsafe_get sv j > Array.unsafe_get dv !i then grows := true
    end
    else incr fresh
  done;
  if !fresh > 0 || !grows then begin
    let n = dn + !fresh in
    reserve dst n;
    let dk = dst.keys and dv = dst.vals in
    (* out - i counts the fresh src slots still to place, so every write
       lands in [0, n), and once src is exhausted the rest of dst is
       already where it belongs *)
    let i = ref (dn - 1) and out = ref (n - 1) in
    for j = sn - 1 downto 0 do
      let k = Array.unsafe_get sk j in
      while !i >= 0 && Array.unsafe_get dk !i > k do
        Array.unsafe_set dk !out (Array.unsafe_get dk !i);
        Array.unsafe_set dv !out (Array.unsafe_get dv !i);
        decr i;
        decr out
      done;
      let v = Array.unsafe_get sv j in
      if !i >= 0 && Array.unsafe_get dk !i = k then begin
        let d = Array.unsafe_get dv !i in
        Array.unsafe_set dv !out (if v > d then v else d);
        decr i
      end
      else Array.unsafe_set dv !out v;
      Array.unsafe_set dk !out k;
      decr out
    done;
    dst.len <- n
  end

type wrec = {
  w_id : int;  (* operation id, for violation reports *)
  w_proc : int;
  w_index : int;  (* 1-based rank in the (proc, loc) write chain *)
  w_value : int;
  w_before : int array;
      (* (observer r, writer q) -> number of (q, loc) writes strictly
         before this one under View r; procs² entries, observer-major *)
}

(* Tiny growable array (OCaml 5.1 has no Dynarray). *)
type 'a vec = { mutable arr : 'a array; mutable len : int }

let vec_make () = { arr = [||]; len = 0 }

let vec_push v x =
  if v.len = Array.length v.arr then begin
    let arr' = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.arr 0 arr' 0 v.len;
    v.arr <- arr'
  end;
  v.arr.(v.len) <- x;
  v.len <- v.len + 1

(* What the previous read of a (proc, loc) pair observed. *)
type prev_obs = P_init | P_write of wrec

let check ?(require_locked_writes = false) ?(init = fun _ -> 0) ~procs ~locs
    (events : event list) : report =
  if procs < 1 then invalid_arg "History.check: bad process count";
  if locs < 1 then invalid_arg "History.check: bad location count";
  let pl = procs * locs in
  let rows () = Array.init procs (fun _ -> row_make ()) in
  (* frontier state: one row per observer, except the observer-p-only
     tables cr and fj_rw.  cw and ca hold procs² · locs rows between
     them, so their per-(proc, loc) groups are allocated on first touch
     and an untouched pair costs one pointer to the empty array *)
  let cw = Array.make pl [||] in
  let ca = Array.make pl [||] in
  let group tbl pv =
    if Array.length tbl.(pv) = 0 then tbl.(pv) <- rows ();
    tbl.(pv)
  in
  let cr = Array.init pl (fun _ -> row_make ()) in
  let s = Array.init locs (fun _ -> rows ()) in
  let fc = Array.init procs (fun _ -> rows ()) in
  let fj_ar = Array.init procs (fun _ -> rows ()) in
  let fj_rw = Array.init procs (fun _ -> row_make ()) in
  (* write registries: per (proc, loc) chain and per location, issue order *)
  let chains = Array.init pl (fun _ -> vec_make ()) in
  let by_loc = Array.init locs (fun _ -> vec_make ()) in
  (* lock and monotonicity bookkeeping, as in the reference *)
  let holder = Array.make locs None in
  let writes_seen : (int * int, prev_obs) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let next_id = ref locs in
  let check_bounds proc loc =
    if proc < 0 || proc >= procs then invalid_arg "History.check: bad process";
    if loc < 0 || loc >= locs then invalid_arg "History.check: bad location"
  in

  let do_read proc loc value id =
    let pv = (proc * locs) + loc in
    let cw_pv = group cw pv and ca_pv = group ca pv in
    (* before-writes frontier of this read at its own location: per
       writer q, how many (q, loc) writes precede it under View proc *)
    let frontier =
      Array.init procs (fun q ->
          let k = (q * locs) + loc in
          let a = row_get cw_pv.(proc) k and b = row_get ca_pv.(proc) k in
          if a > b then a else b)
    in
    let lw_is_init = Array.for_all (fun n -> n = 0) frontier in
    let lw_last q = chains.((q * locs) + loc).arr.(frontier.(q) - 1) in
    (* last writes: the newest write of each non-empty per-writer prefix,
       minus the dominated ones (q's is dominated iff another writer's
       newest already counts it among its own befores) *)
    let is_lw q =
      frontier.(q) > 0
      &&
      let dominated = ref false in
      for q' = 0 to procs - 1 do
        if (not !dominated) && q' <> q && frontier.(q') > 0 then
          if (lw_last q').w_before.((proc * procs) + q) >= frontier.(q) then
            dominated := true
      done;
      not !dominated
    in
    let lw = Array.init procs is_lw in
    (* b is readable iff some last write precedes-or-equals it (Def. 12);
       when the only last write is the initial operation, every write
       issued so far is readable.  Within one writer chain the count
       [w_before.(proc·procs+q)] is monotone (the bucket frontier it was
       snapshotted from only grows), so for each last write q the
       readable part of each chain is a suffix, found by binary search;
       the union over q is the suffix from the minimum start.  A last
       write's own chain is special: the element at index
       [frontier.(q)-1] is the last write itself, readable by identity,
       and contiguous with its chain's suffix.  After this, "is b
       readable" is one index comparison. *)
    let starts = Array.make procs max_int in
    if lw_is_init then Array.fill starts 0 procs 0
    else
      for q' = 0 to procs - 1 do
        let c = chains.((q' * locs) + loc) in
        let s = ref max_int in
        for q = 0 to procs - 1 do
          if lw.(q) then
            if q = q' then s := min !s (frontier.(q') - 1)
            else begin
              let tgt = frontier.(q) and off = (proc * procs) + q in
              let lo = ref 0 and hi = ref c.len in
              while !lo < !hi do
                let mid = (!lo + !hi) / 2 in
                if c.arr.(mid).w_before.(off) >= tgt then hi := mid
                else lo := mid + 1
              done;
              s := min !s !lo
            end
        done;
        starts.(q') <- !s
      done;
    let readable (b : wrec) = b.w_index - 1 >= starts.(b.w_proc) in
    let ws = by_loc.(loc) in
    let init_candidate = lw_is_init && init loc = value in
    (* oldest readable write carrying the observed value: per chain the
       first match at or after the readable start (ids ascend within a
       chain), minimized across chains; chains are abandoned as soon as
       they pass the best id found so far *)
    let oldest = ref None in
    let best_id = ref max_int in
    for q' = 0 to procs - 1 do
      let c = chains.((q' * locs) + loc) in
      let i = ref starts.(q') in
      let scanning = ref true in
      while !scanning && !i < c.len do
        let b = c.arr.(!i) in
        if b.w_id >= !best_id then scanning := false
        else if b.w_value = value then begin
          oldest := Some b;
          best_id := b.w_id;
          scanning := false
        end
        else incr i
      done
    done;
    if (not init_candidate) && !oldest = None then begin
      (* unreadable: collect the full readable value set for the report *)
      let values = ref (if lw_is_init then [ init loc ] else []) in
      for q' = 0 to procs - 1 do
        let c = chains.((q' * locs) + loc) in
        for j = starts.(q') to c.len - 1 do
          values := c.arr.(j).w_value :: !values
        done
      done;
      add
        (Unreadable_value
           {
             op = { id; kind = Op.Read; proc; loc; value };
             readable = List.sort_uniq compare !values;
           })
    end
    else begin
      (match Hashtbl.find_opt writes_seen (proc, loc) with
      | Some (P_write pw) ->
          (* violation iff every candidate is strictly View-proc-before
             the previously observed write.  The initial operation, when
             a candidate, precedes every real write, so it cannot break
             the for-all; scan real candidates newest-first so the common
             case (the newest one is not before prev) exits early. *)
          let all_before = ref true in
          let j = ref (ws.len - 1) in
          while !all_before && !j >= 0 do
            let b = ws.arr.(!j) in
            if b.w_value = value && readable b then
              if not (pw.w_before.((proc * procs) + b.w_proc) >= b.w_index)
              then all_before := false;
            decr j
          done;
          if !all_before then
            add
              (Non_monotonic_reads
                 {
                   first =
                     {
                       id = pw.w_id;
                       kind = Op.Write;
                       proc = pw.w_proc;
                       loc;
                       value = pw.w_value;
                     };
                   second = { id; kind = Op.Read; proc; loc; value };
                 })
      | Some P_init | None -> ());
      (* remember the oldest candidate conservatively *)
      (match (init_candidate, !oldest) with
      | true, _ -> Hashtbl.replace writes_seen (proc, loc) P_init
      | false, Some b -> Hashtbl.replace writes_seen (proc, loc) (P_write b)
      | false, None -> ())
    end;
    (* propagation: the read's down-set (under its own view only — all
       its in-edges are local) feeds later (proc, loc) operations and
       later fences of proc *)
    let crr = cr.(pv) in
    join crr cw_pv.(proc);
    join crr ca_pv.(proc);
    join fj_rw.(proc) crr
  in

  let do_write proc loc value id =
    if require_locked_writes && holder.(loc) <> Some proc then
      add
        (Write_outside_lock
           { op = { id = -1; kind = Op.Write; proc; loc; value } });
    let pv = (proc * locs) + loc in
    let rows = group cw pv and ca_pv = group ca pv in
    for r = 0 to procs - 1 do
      join rows.(r) ca_pv.(r);
      join rows.(r) fc.(proc).(r)
    done;
    join rows.(proc) cr.(pv);
    (* the write's own strictly-before counts, per (observer, writer) *)
    let before = Array.make (procs * procs) 0 in
    for r = 0 to procs - 1 do
      for q = 0 to procs - 1 do
        before.((r * procs) + q) <- row_get rows.(r) ((q * locs) + loc)
      done
    done;
    let idx = chains.(pv).len + 1 in
    let w = { w_id = id; w_proc = proc; w_index = idx; w_value = value;
              w_before = before } in
    vec_push chains.(pv) w;
    vec_push by_loc.(loc) w;
    for r = 0 to procs - 1 do
      row_max rows.(r) pv idx
    done;
    join fj_rw.(proc) rows.(proc)
  in

  let do_acquire ~ro proc loc =
    if not ro then begin
      (match holder.(loc) with
      | Some h -> add (Double_acquire { loc; holder = h; proc })
      | None -> ());
      holder.(loc) <- Some proc
    end;
    let pv = (proc * locs) + loc in
    let rows = group ca pv and s_v = s.(loc) in
    for r = 0 to procs - 1 do
      join rows.(r) s_v.(r);
      join rows.(r) fc.(proc).(r)
    done;
    join rows.(proc) cr.(pv);
    for r = 0 to procs - 1 do
      join fj_ar.(proc).(r) rows.(r)
    done
  in

  let do_release ~ro proc loc =
    if not ro then
      match holder.(loc) with
      | Some h when h = proc -> holder.(loc) <- None
      | _ -> add (Release_not_held { loc; proc })
  in
  let do_release_common proc loc =
    let pv = (proc * locs) + loc in
    let cw_pv = group cw pv and ca_pv = group ca pv and cr_pv = cr.(pv) in
    let s_v = s.(loc) in
    for r = 0 to procs - 1 do
      let sv = s_v.(r) and fj = fj_ar.(proc).(r) in
      join sv cw_pv.(r);
      join fj cw_pv.(r);
      join sv ca_pv.(r);
      join fj ca_pv.(r);
      join sv fc.(proc).(r);
      join fj fc.(proc).(r)
    done;
    join s_v.(proc) cr_pv;
    join fj_ar.(proc).(proc) cr_pv
  in

  let do_fence proc =
    for r = 0 to procs - 1 do
      join fc.(proc).(r) fj_ar.(proc).(r)
    done;
    join fc.(proc).(proc) fj_rw.(proc)
  in

  List.iter
    (fun ev ->
      let id = !next_id in
      incr next_id;
      match ev with
      | E_fence { proc } ->
          check_bounds proc 0;
          do_fence proc
      | E_acquire { proc; loc } ->
          check_bounds proc loc;
          do_acquire ~ro:false proc loc
      | E_acquire_ro { proc; loc } ->
          check_bounds proc loc;
          do_acquire ~ro:true proc loc
      | E_release { proc; loc } ->
          check_bounds proc loc;
          do_release ~ro:false proc loc;
          do_release_common proc loc
      | E_release_ro { proc; loc } ->
          check_bounds proc loc;
          do_release ~ro:true proc loc;
          do_release_common proc loc
      | E_write { proc; loc; value } ->
          check_bounds proc loc;
          do_write proc loc value id
      | E_read { proc; loc; value } ->
          check_bounds proc loc;
          do_read proc loc value id)
    events;
  (* every edge the Table-I rules create points from a lower id to a
     higher one, so ≺ is acyclic by construction — the reference's final
     acyclicity pass can never fire and is not replayed here *)
  { violations = List.rev !violations }
