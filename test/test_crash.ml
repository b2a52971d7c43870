(* Crash-consistency tests for the far-memory tier: the persistence
   domain's durability semantics (visible implies durable), redo-log
   recovery and its idempotence, the crash checker's contract — a
   logged [exit_x] never tears, and the deliberately tearable no-log
   mode is caught — and the one-pass checker against [Crash_oracle],
   the run-to-the-cut reference, down to every cycle of a window. *)

open Pmc_sim

let find_app name =
  match Pmc_apps.Registry.find name with
  | Some a -> a
  | None -> Alcotest.fail (name ^ " app missing")

(* ---------------- the persistence domain ---------------- *)

let mk_dev () = Farmem.create ~data_bytes:4096 ~word_occupancy:4 ~slots:4

let test_durable_only_after_barrier () =
  let d = mk_dev () in
  let addr = Farmem.alloc d ~name:"x" ~bytes:16 in
  Farmem.poke_u32 d addr 7;
  Farmem.write_u32_int d addr 42;
  (* the write sits in the volatile device cache: a committed read and
     the durable media still see the old value *)
  Alcotest.(check int) "read serves durable data" 7 (Farmem.read_u32_int d addr);
  Alcotest.(check int) "media unchanged" 7 (Farmem.peek_u32 d addr);
  Alcotest.(check bool) "dirty" true (Farmem.dirty_bytes d > 0);
  let flushed = Farmem.barrier d in
  Alcotest.(check bool) "barrier drained bytes" true (flushed > 0);
  Alcotest.(check int) "now durable" 42 (Farmem.peek_u32 d addr);
  Alcotest.(check int) "clean after barrier" 0 (Farmem.dirty_bytes d)

let test_image_drops_device_cache () =
  let d = mk_dev () in
  let addr = Farmem.alloc d ~name:"x" ~bytes:16 in
  Farmem.write_u32_int d addr 1;
  ignore (Farmem.barrier d);
  Farmem.write_u32_int d addr 2 (* never flushed: lost by the cut *);
  let img = Farmem.image d in
  let f = mk_dev () in
  ignore (Farmem.alloc f ~name:"x" ~bytes:16);
  Farmem.restore f img;
  Alcotest.(check int) "only the durable write survives" 1
    (Farmem.peek_u32 f addr)

let test_recover_empty_log () =
  let d = mk_dev () in
  let r = Farmem.recover d in
  Alcotest.(check bool) "no committed slot" false r.Farmem.committed;
  Alcotest.(check int) "no records" 0 r.Farmem.records

let test_recover_idempotent_on_committed_slot () =
  (* hand-craft a committed slot: one record homing 2 words, then check
     recovery applies it and a second recovery changes nothing *)
  let d = mk_dev () in
  let home = Farmem.alloc d ~name:"x" ~bytes:16 in
  let slot = Farmem.slot_addr d 0 in
  Farmem.poke_u32 d (slot + 4) 1 (* record count *);
  Farmem.poke_u32 d (slot + 8) home (* record: home *);
  Farmem.poke_u32 d (slot + 12) 2 (* record: words *);
  Farmem.poke_u32 d (slot + 16) 111;
  Farmem.poke_u32 d (slot + 20) 222;
  Farmem.poke_u32 d slot 1 (* commit flag *);
  let img = Farmem.image d in
  let r1 = Farmem.recover d in
  Alcotest.(check bool) "committed slot found" true r1.Farmem.committed;
  Alcotest.(check int) "two words applied" 2 r1.Farmem.words_applied;
  Alcotest.(check int) "word 0 applied" 111 (Farmem.peek_u32 d home);
  Alcotest.(check int) "word 1 applied" 222 (Farmem.peek_u32 d (home + 4));
  let after_once = Farmem.image d in
  let r2 = Farmem.recover d in
  Alcotest.(check bool) "flag cleared: second recovery a no-op" false
    r2.Farmem.committed;
  Alcotest.(check bytes) "media unchanged by second recovery" after_once
    (Farmem.image d);
  (* and from the original image, recovery lands on the same bytes *)
  let f = mk_dev () in
  ignore (Farmem.alloc f ~name:"x" ~bytes:16);
  Farmem.restore f img;
  ignore (Farmem.recover f);
  Alcotest.(check bytes) "same image, same recovered media" after_once
    (Farmem.image f)

let test_uncommitted_slot_discarded () =
  let d = mk_dev () in
  let home = Farmem.alloc d ~name:"x" ~bytes:16 in
  Farmem.poke_u32 d home 5;
  let slot = Farmem.slot_addr d 0 in
  (* records written, commit flag never set: the cut beat the commit *)
  Farmem.poke_u32 d (slot + 4) 1;
  Farmem.poke_u32 d (slot + 8) home;
  Farmem.poke_u32 d (slot + 12) 1;
  Farmem.poke_u32 d (slot + 16) 999;
  let r = Farmem.recover d in
  Alcotest.(check bool) "nothing committed" false r.Farmem.committed;
  Alcotest.(check int) "home untouched" 5 (Farmem.peek_u32 d home)

(* ---------------- power-cut determinism ---------------- *)

let test_cut_cycle_pure () =
  let c1 = Fault.power_cut_cycle ~fault_seed:9 ~window:50_000 in
  let c2 = Fault.power_cut_cycle ~fault_seed:9 ~window:50_000 in
  Alcotest.(check int) "same (seed, window), same cut" c1 c2;
  Alcotest.(check bool) "cut inside the window" true
    (c1 >= 1 && c1 <= 50_000);
  let c3 = Fault.power_cut_cycle ~fault_seed:10 ~window:50_000 in
  Alcotest.(check bool) "seeds spread the cut" true (c1 <> c3)

(* ---------------- recovery idempotence (qcheck) ---------------- *)

(* Crash a real run, then recover the durable image twice into separate
   fresh devices: byte-identical media both times — and recovering the
   already-recovered image is a no-op. *)
let prop_recovery_idempotent =
  QCheck.Test.make ~count:15 ~name:"recovery is idempotent"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let app = find_app "histogram" in
      let cores = 4 in
      let base = { Config.default with Config.cores } in
      let cfg = Config.crash ~seed ~window:3_000 base in
      let machine = ref None in
      let on_api api = machine := Some (Pmc.Api.machine api) in
      (try ignore (Pmc_apps.Runner.run ~cfg ~on_api app
                     ~backend:Pmc.Backends.Farmem ~scale:8)
       with Engine.Power_cut _ -> ());
      match Option.bind !machine Machine.farmem_opt with
      | None -> false
      | Some dev ->
          let img = Farmem.image dev in
          let fresh () =
            let f =
              Farmem.create ~data_bytes:cfg.Config.farmem_bytes
                ~word_occupancy:cfg.Config.farmem_word_occupancy ~slots:cores
            in
            Farmem.restore f img;
            ignore (Farmem.recover f);
            f
          in
          let f1 = fresh () and f2 = fresh () in
          let once = Farmem.image f1 in
          let r2 = Farmem.recover f1 in
          Bytes.equal once (Farmem.image f2)
          && (not r2.Farmem.committed)
          && Bytes.equal once (Farmem.image f1))

(* and the checker's verdict is a pure function of the experiment key *)
let prop_verdict_reproducible =
  QCheck.Test.make ~count:8 ~name:"crash verdicts reproducible"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let app = find_app "reduce" in
      let one () =
        Pmc_apps.Crash.crash_one ~window:3_000 app
          ~backend:Pmc.Backends.Farmem ~cores:4 ~scale:6 ~seed
      in
      let r1 = one () and r2 = one () in
      r1.Pmc_apps.Crash.verdict = r2.Pmc_apps.Crash.verdict
      && r1.Pmc_apps.Crash.cut = r2.Pmc_apps.Crash.cut
      && r1.Pmc_apps.Crash.wall = r2.Pmc_apps.Crash.wall)

(* ---------------- one pass against the oracle ---------------- *)

let farmem = Pmc.Backends.Farmem

let learned_window app ~scale =
  let cfg = { Config.default with Config.cores = 4 } in
  let r = Pmc_apps.Runner.run ~cfg app ~backend:farmem ~scale in
  max 1 r.Pmc_apps.Runner.wall

(* [judge_cuts] over several seeds from one run must give, cut for cut,
   the report of a run stopped by that seed's own cut closure and judged
   on a full durable image. *)
let one_pass_matches_oracle ?(log = true) ?capacity ?(backend = farmem)
    ~window app ~scale seeds =
  let cuts =
    List.map
      (fun seed -> (seed, Fault.power_cut_cycle ~fault_seed:seed ~window))
      seeds
  in
  let fast =
    Pmc_apps.Crash.judge_cuts ~log ?capacity app ~backend ~cores:4 ~scale
      ~window cuts
  in
  let slow =
    List.map
      (fun seed ->
        Crash_oracle.crash_one ~log ~window ?capacity app ~backend ~cores:4
          ~scale ~seed)
      seeds
  in
  List.for_all2
    (fun (f : Pmc_apps.Crash.report) s ->
      f = s
      || QCheck.Test.fail_reportf "seed %d: one pass %a, oracle %a"
           f.Pmc_apps.Crash.seed Pmc_apps.Crash.pp_report f
           Pmc_apps.Crash.pp_report s)
    fast slow

let prop_one_pass_equals_oracle =
  let apps =
    [ ("histogram", 8); ("mailbox", 2); ("reduce", 6); ("stencil", 4) ]
  in
  QCheck.Test.make ~count:12
    ~name:"one-pass cuts equal the run-to-the-cut oracle"
    QCheck.(
      triple (make ~print:fst (Gen.oneofl apps)) (int_range 1 10_000) bool)
    (fun ((name, scale), seed, log) ->
      let app = find_app name in
      one_pass_matches_oracle ~log ~window:(learned_window app ~scale) app
        ~scale
        [ seed; seed + 1; seed + 2; seed + 3 ])

let test_one_pass_edges () =
  let app = find_app "histogram" in
  let window = learned_window app ~scale:8 in
  let check what ok = Alcotest.(check bool) what true ok in
  (* cuts past the wall complete, as they do in a cut run *)
  check "cuts past the wall"
    (one_pass_matches_oracle ~window:(3 * window) app ~scale:8
       (List.init 8 (fun i -> i + 1)));
  (* a ring a cut run would overflow is an error with the same counts *)
  check "ring overflow"
    (one_pass_matches_oracle ~capacity:64 ~window app ~scale:8 [ 1; 2; 3 ]);
  check "no far-memory tier"
    (one_pass_matches_oracle ~backend:Pmc.Backends.Dsm ~window app ~scale:8
       [ 1; 2 ])

(* Every cycle of the window from one run: the exhaustive crash-state
   check.  With the redo log every state must recover; without it some
   cut must land mid-publication and be caught. *)
let test_every_cut () =
  let app = find_app "mailbox" in
  let scale = 2 in
  let window = learned_window app ~scale in
  let every = List.init window (fun i -> (0, i + 1)) in
  let judge ?model_check log =
    Pmc_apps.Crash.judge_cuts ~log ?model_check app ~backend:farmem ~cores:4
      ~scale ~window every
  in
  List.iter
    (fun (r : Pmc_apps.Crash.report) ->
      if not (Pmc_apps.Crash.acceptable r.Pmc_apps.Crash.verdict) then
        Alcotest.failf "logged cut: %a" Pmc_apps.Crash.pp_report r)
    (judge true);
  let torn =
    List.length
      (List.filter
         (fun (r : Pmc_apps.Crash.report) ->
           match r.Pmc_apps.Crash.verdict with
           | Pmc_apps.Crash.Torn _ -> true
           | _ -> false)
         (judge ~model_check:false false))
  in
  Alcotest.(check bool)
    (Printf.sprintf "no-log torn at %d of %d cuts" torn window)
    true (torn >= 1)

(* ---------------- the checker's contract ---------------- *)

let test_logged_exit_never_tears () =
  (* a seed range over two apps: every experiment must recover clean (or
     complete, if the cut landed past the wall) *)
  List.iter
    (fun name ->
      let app = find_app name in
      for seed = 1 to 10 do
        let r =
          Pmc_apps.Crash.crash_one app ~backend:Pmc.Backends.Farmem ~cores:4
            ~scale:6 ~seed
        in
        Alcotest.(check bool)
          (Fmt.str "%s seed %d: %a" name seed Pmc_apps.Crash.pp_verdict
             r.Pmc_apps.Crash.verdict)
          true
          (Pmc_apps.Crash.acceptable r.Pmc_apps.Crash.verdict)
      done)
    [ "histogram"; "stencil" ]

let test_unlogged_exit_is_caught () =
  (* the negative control: with the redo log disarmed, publication is
     word-by-word and some seed must land a cut mid-publication — if the
     checker never reports Torn here, it is not checking anything *)
  let app = find_app "stencil" in
  let torn = ref 0 in
  for seed = 1 to 12 do
    let r =
      Pmc_apps.Crash.crash_one ~log:false ~model_check:false app
        ~backend:Pmc.Backends.Farmem ~cores:4 ~scale:6 ~seed
    in
    match r.Pmc_apps.Crash.verdict with
    | Pmc_apps.Crash.Torn _ -> incr torn
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "no-log mode torn on %d/12 seeds" !torn)
    true (!torn >= 1)

let test_non_farmem_backend_rejected () =
  let app = find_app "histogram" in
  let r =
    Pmc_apps.Crash.crash_one app ~backend:Pmc.Backends.Dsm ~cores:4 ~scale:4
      ~seed:1
  in
  match r.Pmc_apps.Crash.verdict with
  | Pmc_apps.Crash.Check_error _ -> ()
  | v ->
      Alcotest.failf "expected Check_error, got %a" Pmc_apps.Crash.pp_verdict
        v

(* ---------------- sweep and jobs ---------------- *)

let test_sweep_counts () =
  let apps = [ find_app "histogram"; find_app "reduce" ] in
  let s =
    Pmc_apps.Crash.sweep ~apps ~backend:Pmc.Backends.Farmem ~cores:4 ~scale:6
      ~seeds:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "six experiments" 6 s.Pmc_apps.Crash.total;
  Alcotest.(check bool) "sweep passes" true (Pmc_apps.Crash.ok s);
  Alcotest.(check int) "every verdict accounted" s.Pmc_apps.Crash.total
    (s.Pmc_apps.Crash.recovered + s.Pmc_apps.Crash.completed
    + s.Pmc_apps.Crash.torn + s.Pmc_apps.Crash.inconsistent
    + s.Pmc_apps.Crash.errors)

let test_crash_job_roundtrip () =
  let job =
    Pmc_jobs.Job.Crash
      {
        Pmc_jobs.Job.x_app = "stencil";
        x_backend = "farmem";
        x_topology = "mesh:2x2";
        x_cores = 4;
        x_scale = 6;
        x_seed = 7;
        x_window = 12_345;
        x_log = false;
        x_model_check = true;
        x_replay_budget = Some 9_999;
      }
  in
  let j = Pmc_jobs.Job.to_json job in
  Alcotest.(check bool) "crash job JSON round-trips" true
    (Pmc_jobs.Job.of_json j = job);
  Alcotest.(check string) "stable cache key" (Pmc_jobs.Job.key job)
    (Pmc_jobs.Job.key (Pmc_jobs.Job.of_json j))

let test_crash_result_roundtrip () =
  let app = find_app "reduce" in
  let report =
    Pmc_apps.Crash.crash_one ~window:3_000 app ~backend:Pmc.Backends.Farmem
      ~cores:4 ~scale:6 ~seed:3
  in
  let r = Pmc_jobs.Result.Crash_checked report in
  let j = Pmc_jobs.Result.to_json r in
  Alcotest.(check bool) "crash result JSON round-trips" true
    (Pmc_jobs.Result.of_json j = r)

let suite =
  ( "crash",
    [
      Alcotest.test_case "durable only after barrier" `Quick
        test_durable_only_after_barrier;
      Alcotest.test_case "image drops the device cache" `Quick
        test_image_drops_device_cache;
      Alcotest.test_case "recover with empty log" `Quick
        test_recover_empty_log;
      Alcotest.test_case "recover committed slot, idempotent" `Quick
        test_recover_idempotent_on_committed_slot;
      Alcotest.test_case "uncommitted slot discarded" `Quick
        test_uncommitted_slot_discarded;
      Alcotest.test_case "cut cycle pure in (seed, window)" `Quick
        test_cut_cycle_pure;
      QCheck_alcotest.to_alcotest prop_recovery_idempotent;
      QCheck_alcotest.to_alcotest prop_verdict_reproducible;
      QCheck_alcotest.to_alcotest prop_one_pass_equals_oracle;
      Alcotest.test_case "one pass: completed, overflow, no tier" `Quick
        test_one_pass_edges;
      Alcotest.test_case "every cut of a window" `Slow test_every_cut;
      Alcotest.test_case "logged exit_x never tears" `Slow
        test_logged_exit_never_tears;
      Alcotest.test_case "unlogged exit_x is caught" `Slow
        test_unlogged_exit_is_caught;
      Alcotest.test_case "non-farmem backend rejected" `Quick
        test_non_farmem_backend_rejected;
      Alcotest.test_case "sweep counts verdicts" `Slow test_sweep_counts;
      Alcotest.test_case "crash job JSON round-trip" `Quick
        test_crash_job_roundtrip;
      Alcotest.test_case "crash result JSON round-trip" `Quick
        test_crash_result_roundtrip;
    ] )
