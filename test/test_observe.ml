(* Tests of the observation semantics: last writes (Def. 11), readable
   values / slow reads (Def. 12), data races, and the history checker. *)

open Pmc_model

let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

let test_last_write_simple () =
  let e = Execution.create ~procs:1 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  let w2 = Execution.write e ~proc:0 ~loc:0 ~value:2 in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:2 in
  let lw = Observe.last_writes ~view:0 e r in
  Alcotest.(check int) "single last write" 1 (List.length lw);
  Alcotest.(check int) "it is w2" w2.Op.id (List.hd lw).Op.id

let test_last_write_initial () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  let r = Execution.read e ~proc:0 ~loc:0 ~value:0 in
  let lw = Observe.last_writes ~view:0 e r in
  Alcotest.(check int) "initial write is the last write" 1 (List.length lw);
  check_bool "it is the init op" true ((List.hd lw).Op.kind = Op.Init)

(* Slow reads: another process may still see an older value, but never one
   older than its own last-write bound; and values can be newer. *)
let test_slow_read_cross_process () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:0 ~loc:0);
  (* p1 reads without synchronizing: it may see 0, 1 or 2 — writes
     propagate slowly *)
  let r = Execution.read e ~proc:1 ~loc:0 ~value:0 in
  check_ints "unsynchronized read: any of 0,1,2" [ 0; 1; 2 ]
    (Observe.readable_values e r)

let test_synchronized_read_is_exact () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  let r = Execution.read e ~proc:1 ~loc:0 ~value:2 in
  check_ints "read after acquire sees exactly 2" [ 2 ]
    (Observe.readable_values e r);
  check_bool "deterministic" true (Observe.deterministic_read e r)

let test_own_writes_are_exact () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:5);
  let r = Execution.read e ~proc:0 ~loc:0 ~value:5 in
  check_ints "own write is the only readable value" [ 5 ]
    (Observe.readable_values e r)

let test_write_write_race () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:2);
  check_bool "two unsynchronized writes race" false (Observe.race_free e);
  Alcotest.(check int) "exactly one racing pair" 1
    (List.length (Observe.write_write_races e))

let test_locked_writes_no_race () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:1 ~loc:0);
  check_bool "lock-wrapped writes do not race" true (Observe.race_free e)

let test_race_makes_read_nondeterministic () =
  let e = Execution.create ~procs:3 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:2);
  let r = Execution.read e ~proc:2 ~loc:0 ~value:1 in
  check_bool "racy location reads nondeterministically" false
    (Observe.deterministic_read e r);
  check_ints "all three values readable" [ 0; 1; 2 ]
    (Observe.readable_values e r);
  (* a reader synchronized with both racy writers sees both in its
     last-write set *)
  let e2 = Execution.create ~procs:3 ~locs:2 () in
  ignore (Execution.write e2 ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e2 ~proc:1 ~loc:0 ~value:2);
  (* both writers release a lock the reader acquires *)
  ignore (Execution.acquire e2 ~proc:0 ~loc:1);
  ignore (Execution.release e2 ~proc:0 ~loc:1);
  ignore (Execution.acquire e2 ~proc:1 ~loc:1);
  ignore (Execution.release e2 ~proc:1 ~loc:1);
  ignore (Execution.acquire e2 ~proc:2 ~loc:1);
  (* but the writes themselves stay concurrent: use fences to order each
     writer's write before its release *)
  check_bool "the racy writes are concurrent" false (Observe.race_free e2)

(* ------------------------------------------------------------------ *)
(* history checker *)

open History

let ev_r proc loc value = E_read { proc; loc; value }
let ev_w proc loc value = E_write { proc; loc; value }
let ev_a proc loc = E_acquire { proc; loc }
let ev_rel proc loc = E_release { proc; loc }

let test_history_good_trace () =
  let r =
    check ~procs:2 ~locs:2
      [
        ev_a 0 0; ev_w 0 0 42; ev_rel 0 0;
        ev_a 0 1; ev_w 0 1 1; ev_rel 0 1;
        ev_r 1 1 1;
        ev_a 1 0; ev_r 1 0 42; ev_rel 1 0;
      ]
  in
  Alcotest.(check bool) "clean trace validates" true (ok r)

let test_history_unreadable_value () =
  let r = check ~procs:2 ~locs:1 [ ev_w 0 0 1; ev_r 0 0 7 ] in
  Alcotest.(check bool) "impossible value flagged" false (ok r);
  match r.violations with
  | [ Unreadable_value _ ] -> ()
  | _ -> Alcotest.fail "expected Unreadable_value"

let test_history_stale_own_write () =
  (* a process reading older than its own last write is invalid *)
  let r = check ~procs:1 ~locs:1 [ ev_w 0 0 1; ev_w 0 0 2; ev_r 0 0 1 ] in
  Alcotest.(check bool) "own stale read flagged" false (ok r)

let test_history_slow_cross_read_ok () =
  (* another process seeing the older value is fine (slow memory) *)
  let r = check ~procs:2 ~locs:1 [ ev_w 0 0 1; ev_w 0 0 2; ev_r 1 0 1 ] in
  Alcotest.(check bool) "cross-process stale read allowed" true (ok r)

let test_history_double_acquire () =
  let r = check ~procs:2 ~locs:1 [ ev_a 0 0; ev_a 1 0 ] in
  Alcotest.(check bool) "double acquire flagged" false (ok r);
  match r.violations with
  | Double_acquire _ :: _ -> ()
  | _ -> Alcotest.fail "expected Double_acquire"

let test_history_release_not_held () =
  let r = check ~procs:2 ~locs:1 [ ev_rel 1 0 ] in
  Alcotest.(check bool) "foreign release flagged" false (ok r)

let test_history_monotonic_reads () =
  (* p1 sees 2 and then 1 — time went backwards *)
  let r =
    check ~procs:2 ~locs:1
      [ ev_w 0 0 1; ev_w 0 0 2; ev_r 1 0 2; ev_r 1 0 1 ]
  in
  Alcotest.(check bool) "non-monotonic reads flagged" false (ok r);
  Alcotest.(check bool) "specific violation" true
    (List.exists
       (function Non_monotonic_reads _ -> true | _ -> false)
       r.violations)

let test_history_locked_write_discipline () =
  let r =
    check ~require_locked_writes:true ~procs:1 ~locs:1 [ ev_w 0 0 1 ]
  in
  Alcotest.(check bool) "unlocked write flagged when required" false (ok r)

(* ---------------- property tests ---------------- *)

(* Generate a well-formed SC run: writes happen under the location's lock,
   reads return the current memory value.  SC runs must always validate
   (SC behaviour is within PMC). *)
let gen_sc_trace ops : History.event list =
  let mem = Array.make 2 0 in
  let held = Array.make 3 None in
  let events = ref [] in
  List.iter
    (fun (kind, proc, loc, value) ->
      let loc = loc mod 2 and proc = proc mod 3 in
      match kind mod 3 with
      | 0 -> events := History.E_read { proc; loc; value = mem.(loc) } :: !events
      | 1 -> (
          (* write under this process's lock if it can take it *)
          match held.(proc) with
          | Some l when l = loc ->
              mem.(loc) <- value;
              events := History.E_write { proc; loc; value } :: !events
          | Some _ -> ()
          | None ->
              if Array.for_all (fun h -> h <> Some loc) held then begin
                held.(proc) <- Some loc;
                events := History.E_acquire { proc; loc } :: !events;
                mem.(loc) <- value;
                events := History.E_write { proc; loc; value } :: !events
              end)
      | _ -> (
          match held.(proc) with
          | Some l ->
              held.(proc) <- None;
              events := History.E_release { proc; loc = l } :: !events
          | None -> ()))
    ops;
  (* close open locks *)
  Array.iteri
    (fun proc h ->
      match h with
      | Some loc -> events := History.E_release { proc; loc } :: !events
      | None -> ())
    held;
  List.rev !events

let gen_ops =
  QCheck.(
    list_of_size Gen.(int_range 5 60)
      (quad (int_range 0 2) (int_range 0 2) (int_range 0 1) (int_range 1 9)))

let prop_sc_traces_validate =
  QCheck.Test.make ~count:200 ~name:"well-formed SC traces always validate"
    gen_ops (fun ops ->
      History.ok (History.check ~procs:3 ~locs:2 (gen_sc_trace ops)))

let prop_corrupted_value_caught =
  QCheck.Test.make ~count:200
    ~name:"a read of a never-written value is always caught" gen_ops
    (fun ops ->
      let events =
        gen_sc_trace ops @ [ History.E_read { proc = 0; loc = 0; value = 99 } ]
      in
      not (History.ok (History.check ~procs:3 ~locs:2 events)))

(* ---- equivalence of the incremental checker and the reference ---- *)

(* Completely arbitrary histories — ill-formed locking, reads of values
   never written, read-only scopes, fences — over a small geometry, so the
   generator reaches every violation constructor. *)
let event_to_string =
  let open History in
  function
  | E_read { proc; loc; value } -> Printf.sprintf "r p%d v%d=%d" proc loc value
  | E_write { proc; loc; value } ->
      Printf.sprintf "w p%d v%d:=%d" proc loc value
  | E_acquire { proc; loc } -> Printf.sprintf "A p%d v%d" proc loc
  | E_release { proc; loc } -> Printf.sprintf "R p%d v%d" proc loc
  | E_acquire_ro { proc; loc } -> Printf.sprintf "Aro p%d v%d" proc loc
  | E_release_ro { proc; loc } -> Printf.sprintf "Rro p%d v%d" proc loc
  | E_fence { proc } -> Printf.sprintf "F p%d" proc

let gen_event ~procs ~locs =
  let open QCheck.Gen in
  int_range 0 (procs - 1) >>= fun proc ->
  int_range 0 (locs - 1) >>= fun loc ->
  int_range 0 2 >>= fun value ->
  frequency
    [
      (4, return (History.E_read { proc; loc; value }));
      (4, return (History.E_write { proc; loc; value }));
      (2, return (History.E_acquire { proc; loc }));
      (2, return (History.E_release { proc; loc }));
      (1, return (History.E_acquire_ro { proc; loc }));
      (1, return (History.E_release_ro { proc; loc }));
      (1, return (History.E_fence { proc }));
    ]

let gen_wild_events =
  QCheck.Gen.(list_size (int_range 0 40) (gen_event ~procs:3 ~locs:2))

let arb_wild_events =
  QCheck.make
    ~print:(fun evs -> String.concat "; " (List.map event_to_string evs))
    gen_wild_events

(* The same event mix over a drawn geometry — up to 4 processes and 8
   locations, so a frontier row spans up to 32 (writer, location) slots
   and the row operations see many-slot inserts and merges. *)
let gen_wide_history =
  let open QCheck.Gen in
  int_range 1 4 >>= fun procs ->
  int_range 1 8 >>= fun locs ->
  list_size (int_range 0 80) (gen_event ~procs ~locs) >|= fun evs ->
  (procs, locs, evs)

let arb_wide_history =
  QCheck.make
    ~print:(fun (procs, locs, evs) ->
      Printf.sprintf "procs=%d locs=%d: %s" procs locs
        (String.concat "; " (List.map event_to_string evs)))
    gen_wide_history

(* The incremental checker must report exactly the violations, in exactly
   the order, that the reference (DAG-building) checker does — on any
   history, well-formed or not, under every option combination. *)
let same_verdict ?require_locked_writes ?init ?(procs = 3) ?(locs = 2) events
    =
  let r = History.check ?require_locked_writes ?init ~procs ~locs events in
  let f =
    History_oracle.check_reference ?require_locked_writes ?init ~procs ~locs
      events
  in
  r.History.violations = f.History_oracle.full_violations

let prop_incremental_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"incremental check ≡ reference on arbitrary histories"
    arb_wild_events (same_verdict ?require_locked_writes:None ?init:None)

let prop_incremental_matches_reference_locked =
  QCheck.Test.make ~count:300
    ~name:"incremental check ≡ reference (require_locked_writes)"
    arb_wild_events
    (same_verdict ~require_locked_writes:true ?init:None)

let prop_incremental_matches_reference_init =
  QCheck.Test.make ~count:300
    ~name:"incremental check ≡ reference (nonzero init)" arb_wild_events
    (same_verdict ?require_locked_writes:None ~init:(fun l -> l + 1))

let wide_equivalence ~name ?require_locked_writes ?init () =
  QCheck.Test.make ~count:1000 ~name arb_wide_history
    (fun (procs, locs, evs) ->
      same_verdict ?require_locked_writes ?init ~procs ~locs evs)

let prop_wide_matches_reference =
  wide_equivalence ~name:"incremental check ≡ reference (wide geometry)" ()

let prop_wide_matches_reference_locked =
  wide_equivalence
    ~name:"incremental check ≡ reference (wide, require_locked_writes)"
    ~require_locked_writes:true ()

let prop_wide_matches_reference_init =
  wide_equivalence ~name:"incremental check ≡ reference (wide, nonzero init)"
    ~init:(fun l -> l + 1) ()

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sc_traces_validate;
      prop_corrupted_value_caught;
      prop_incremental_matches_reference;
      prop_incremental_matches_reference_locked;
      prop_incremental_matches_reference_init;
      prop_wide_matches_reference;
      prop_wide_matches_reference_locked;
      prop_wide_matches_reference_init;
    ]

let suite =
  ( "observe+history",
    [
      Alcotest.test_case "last write: simple chain" `Quick
        test_last_write_simple;
      Alcotest.test_case "last write: initial op" `Quick
        test_last_write_initial;
      Alcotest.test_case "slow cross-process read (Def. 12)" `Quick
        test_slow_read_cross_process;
      Alcotest.test_case "synchronized read is exact" `Quick
        test_synchronized_read_is_exact;
      Alcotest.test_case "own writes are exact" `Quick
        test_own_writes_are_exact;
      Alcotest.test_case "write-write race detection" `Quick
        test_write_write_race;
      Alcotest.test_case "locked writes race-free" `Quick
        test_locked_writes_no_race;
      Alcotest.test_case "races make reads nondeterministic" `Quick
        test_race_makes_read_nondeterministic;
      Alcotest.test_case "history: good trace" `Quick test_history_good_trace;
      Alcotest.test_case "history: unreadable value" `Quick
        test_history_unreadable_value;
      Alcotest.test_case "history: stale own write" `Quick
        test_history_stale_own_write;
      Alcotest.test_case "history: slow cross read allowed" `Quick
        test_history_slow_cross_read_ok;
      Alcotest.test_case "history: double acquire" `Quick
        test_history_double_acquire;
      Alcotest.test_case "history: foreign release" `Quick
        test_history_release_not_held;
      Alcotest.test_case "history: monotonic reads" `Quick
        test_history_monotonic_reads;
      Alcotest.test_case "history: locked-write discipline" `Quick
        test_history_locked_write_discipline;
    ]
    @ props )
