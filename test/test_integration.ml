(* Model-conformance integration tests: run annotated programs on the
   *simulated* back-ends with tracing enabled, then replay the observed
   trace through the formal PMC model's history checker
   (Pmc_model.History).  Whatever the timing of caches, NoC and locks
   does, the values the program observed must be explainable by the
   model — this closes the loop between the paper's Section IV
   (formalism) and Section V (implementations).

   Mapping: each single-word shared object is one model location;
   exclusive entries/exits become acquire/release; read-only scopes add no
   synchronization edges (a sound weakening — the checker only gets more
   permissive); accesses map word-wise. *)

open Pmc_sim
open Pmc_model

let cfg = { Config.small with cores = 4 }

(* Collect a trace of API events as History events. *)
let make_tracer () =
  let events = ref [] in
  let locs = Hashtbl.create 16 in
  let next_loc = ref 0 in
  let loc_of (o : Pmc.Shared.t) word =
    let key = (o.Pmc.Shared.id, word) in
    match Hashtbl.find_opt locs key with
    | Some l -> l
    | None ->
        let l = !next_loc in
        incr next_loc;
        Hashtbl.add locs key l;
        l
  in
  let hook ~core ev =
    let push e = events := e :: !events in
    match ev with
    | Pmc.Api.Ev_entry (Pmc.Api.X, o) ->
        for w = 0 to Pmc.Shared.words o - 1 do
          push (History.E_acquire { proc = core; loc = loc_of o w })
        done
    | Pmc.Api.Ev_exit (Pmc.Api.X, o) ->
        for w = 0 to Pmc.Shared.words o - 1 do
          push (History.E_release { proc = core; loc = loc_of o w })
        done
    | Pmc.Api.Ev_entry (Pmc.Api.Ro, _) | Pmc.Api.Ev_exit (Pmc.Api.Ro, _) ->
        ()
    | Pmc.Api.Ev_fence -> push (History.E_fence { proc = core })
    | Pmc.Api.Ev_flush _ -> ()
    | Pmc.Api.Ev_read (o, w, v) ->
        push
          (History.E_read
             { proc = core; loc = loc_of o w; value = Int32.to_int v })
    | Pmc.Api.Ev_write (o, w, v) ->
        push
          (History.E_write
             { proc = core; loc = loc_of o w; value = Int32.to_int v })
    | Pmc.Api.Ev_read8 _ | Pmc.Api.Ev_write8 _ ->
        (* the History mapping is word-granular *)
        ()
    | Pmc.Api.Ev_init _ ->
        (* these programs read nothing before writing it *)
        ()
  in
  (hook, fun () -> (List.rev !events, !next_loc))

let validate name events locs =
  let r = History.check ~procs:cfg.Config.cores ~locs:(max 1 locs) events in
  if not (History.ok r) then
    List.iter
      (fun v -> Fmt.epr "%s: %a@." name History.pp_violation v)
      r.History.violations;
  Alcotest.(check bool) (name ^ ": trace is PMC-consistent") true
    (History.ok r)

let test_msg_conformance () =
  List.iter
    (fun kind ->
      let m = Machine.create cfg in
      let api = Pmc.Backends.create kind m in
      let hook, finish = make_tracer () in
      Pmc.Api.set_trace api (Some hook);
      let data = Pmc.Api.alloc_words api ~name:"X" ~words:2 in
      let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
      Machine.spawn m ~core:0 (fun () ->
          Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
      Machine.spawn m ~core:1 (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag));
      Machine.run m;
      let events, locs = finish () in
      validate ("msg/" ^ Pmc.Backends.to_string kind) events locs)
    Pmc.Backends.all

let test_counter_conformance () =
  List.iter
    (fun kind ->
      let m = Machine.create cfg in
      let api = Pmc.Backends.create kind m in
      let hook, finish = make_tracer () in
      Pmc.Api.set_trace api (Some hook);
      let counter = Pmc.Api.alloc_words api ~name:"ctr" ~words:1 in
      for c = 0 to 3 do
        Machine.spawn m ~core:c (fun () ->
            for _ = 1 to 5 do
              Pmc.Api.with_x api counter (fun () ->
                  let v = Pmc.Api.get_int api counter 0 in
                  Pmc.Api.set_int api counter 0 (v + 1))
            done)
      done;
      Machine.run m;
      Alcotest.(check int)
        (Pmc.Backends.to_string kind ^ ": counter value")
        20
        (Pmc.Api.peek_int api counter 0);
      let events, locs = finish () in
      validate ("counter/" ^ Pmc.Backends.to_string kind) events locs)
    Pmc.Backends.all

let test_fifo_conformance () =
  List.iter
    (fun kind ->
      let m = Machine.create cfg in
      let api = Pmc.Backends.create kind m in
      let hook, finish = make_tracer () in
      Pmc.Api.set_trace api (Some hook);
      let fifo =
        Pmc.Fifo.create api ~name:"f" ~depth:2 ~elem_words:1 ~readers:1
      in
      Machine.spawn m ~core:0 (fun () ->
          for i = 1 to 8 do
            Pmc.Fifo.push fifo [| Int32.of_int i |]
          done);
      Machine.spawn m ~core:1 (fun () ->
          for _ = 1 to 8 do
            ignore (Pmc.Fifo.pop fifo ~reader:0)
          done);
      Machine.run m;
      let events, locs = finish () in
      validate ("fifo/" ^ Pmc.Backends.to_string kind) events locs)
    [ Pmc.Backends.Seqcst; Pmc.Backends.Swcc; Pmc.Backends.Dsm ]

(* The discipline corollary of Def. 11: with every write lock-wrapped (the
   API enforces it), traced executions are write-write race free. *)
let test_no_write_races () =
  let m = Machine.create cfg in
  let api = Pmc.Backends.create Pmc.Backends.Swcc m in
  let hook, finish = make_tracer () in
  Pmc.Api.set_trace api (Some hook);
  let a = Pmc.Api.alloc_words api ~name:"a" ~words:1 in
  let b = Pmc.Api.alloc_words api ~name:"b" ~words:1 in
  for c = 0 to 3 do
    Machine.spawn m ~core:c (fun () ->
        for i = 1 to 4 do
          let o = if (c + i) mod 2 = 0 then a else b in
          Pmc.Api.with_x api o (fun () ->
              Pmc.Api.set_int api o 0 ((c * 100) + i))
        done)
  done;
  Machine.run m;
  let events, locs = finish () in
  let r = History_oracle.check_reference ~procs:4 ~locs events in
  Alcotest.(check bool) "trace validates" true (History_oracle.full_ok r);
  Alcotest.(check bool) "no write-write races" true
    (Observe.race_free r.History_oracle.exec)

let suite =
  ( "integration",
    [
      Alcotest.test_case "msg trace conforms to the model (all back-ends)"
        `Quick test_msg_conformance;
      Alcotest.test_case "locked counter conforms + is exact" `Quick
        test_counter_conformance;
      Alcotest.test_case "fifo trace conforms" `Slow test_fifo_conformance;
      Alcotest.test_case "locked writes leave race-free executions" `Quick
        test_no_write_races;
    ] )
