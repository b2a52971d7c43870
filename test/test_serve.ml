(* pmc_serve tests: wire-protocol round trips (qcheck), verdict-cache
   byte-identity with a fresh run, concurrent-client determinism at
   --jobs 2, budget-exceeded and admission rejections, and graceful
   shutdown draining parked replies over a real socket. *)

open Pmc_serve
module Job = Pmc_jobs.Job
module Jresult = Pmc_jobs.Result
module Run = Pmc_jobs.Run
module Json = Pmc_bench.Json

(* ---------------- generators ---------------- *)

(* Floats are restricted to k/8 so every generated value renders
   losslessly through the %.6g JSON printer. *)
let gen_job =
  let open QCheck.Gen in
  let name = oneofl [ "mp_plain"; "mp_fence"; "sb"; "iriw"; "nosuch" ] in
  let model = oneofl [ "sc"; "pc"; "cc"; "ec"; "slow"; "pmc" ] in
  let backend = oneofl [ "seqcst"; "nocc"; "swcc"; "dsm"; "spm" ] in
  let app = oneofl [ "histogram"; "reduce"; "stencil" ] in
  let litmus =
    let* program = name in
    let* models = list_size (int_bound 3) model in
    let* limit = opt (int_range 1 10_000) in
    return (Job.Litmus { Job.program; models; limit })
  in
  let check =
    let* source =
      oneofl
        [
          "program t\nobj x 4\nthread\n  entry_x x\n  write x\n  exit_x x\n";
          "not a program";
          "";
        ]
    in
    return (Job.Check { Job.name = "gen"; source })
  in
  let topology = QCheck.Gen.oneofl [ "star"; "mesh"; "torus"; "hier" ] in
  let bench =
    let* app = app in
    let* backend = backend in
    let* topology = topology in
    let* cores = int_range 1 16 in
    let* scale = int_range 1 32 in
    let* unbatched = bool in
    let* warmup = int_bound 2 in
    let* repeat = int_range 1 3 in
    return
      (Job.Bench
         { Job.app; backend; topology; cores; scale; unbatched; warmup;
           repeat })
  in
  let chaos =
    let* c_app = app in
    let* c_backend = backend in
    let* c_topology = topology in
    let* c_cores = int_range 1 16 in
    let* c_scale = int_range 1 32 in
    let* seed = int_bound 10_000 in
    let* k = int_bound 24 in
    let* model_check = bool in
    let* replay_budget = opt (int_range 1 (2 * Pmc_apps.Chaos.default_replay_budget)) in
    return
      (Job.Chaos
         {
           Job.c_app;
           c_backend;
           c_topology;
           c_cores;
           c_scale;
           seed;
           intensity = float_of_int k /. 8.0;
           model_check;
           replay_budget;
         })
  in
  oneof [ litmus; check; bench; chaos ]

let gen_budget =
  let open QCheck.Gen in
  let* max_cycles = opt (int_range 1 1_000_000) in
  let* max_states = opt (int_range 1 1_000_000) in
  return { Run.max_cycles; max_states }

let gen_request =
  let open QCheck.Gen in
  oneof
    [
      (let* job = gen_job in
       let* budget = gen_budget in
       let* wait = bool in
       return (Protocol.Submit { job; budget; wait }));
      (let* id = int_bound 1_000 in
       return (Protocol.Status { id }));
      (let* id = int_bound 1_000 in
       let* wait = bool in
       return (Protocol.Result_of { id; wait }));
      return Protocol.Stats;
      return Protocol.Shutdown;
    ]

let gen_response =
  let open QCheck.Gen in
  let str = oneofl [ "reason"; "queue full"; "x#y\"z" ] in
  oneof
    [
      (let* id = int_bound 1_000 in
       let* cached = bool in
       return (Protocol.Submitted { id; cached }));
      (let* reason = str in
       return (Protocol.Rejected { reason }));
      (let* id = int_bound 1_000 in
       let* state = oneofl [ "queued"; "running"; "done" ] in
       return (Protocol.Job_status { id; state }));
      (let* id = int_bound 1_000 in
       return (Protocol.Pending { id }));
      (let* pending = int_bound 64 in
       return (Protocol.Shutdown_started { pending }));
      (let* reason = str in
       return (Protocol.Protocol_error { reason }));
      (let* width = int_range 1 8 in
       let* queue_depth = int_bound 64 in
       let* running = int_bound 8 in
       let* submitted = int_bound 1_000 in
       let* completed = int_bound 1_000 in
       let* rejected = int_bound 1_000 in
       let* cache_hits = int_bound 1_000 in
       let* cache_misses = int_bound 1_000 in
       let* cache_entries = int_bound 256 in
       let* draining = bool in
       return
         (Protocol.Stats_reply
            {
              Protocol.width;
              queue_depth;
              running;
              submitted;
              completed;
              rejected;
              cache_hits;
              cache_misses;
              cache_entries;
              draining;
            }));
    ]

(* round trips are checked on the wire bytes: decode then re-encode
   must reproduce the line exactly (the encoding is canonical) *)
let prop_request_round_trip =
  QCheck.Test.make ~count:300 ~name:"protocol: request line round trip"
    (QCheck.make gen_request) (fun r ->
      let line = Protocol.request_to_line r in
      match Protocol.request_of_line line with
      | Ok r' -> Protocol.request_to_line r' = line
      | Error _ -> false)

let prop_response_round_trip =
  QCheck.Test.make ~count:300 ~name:"protocol: response line round trip"
    (QCheck.make gen_response) (fun r ->
      let line = Protocol.response_to_line r in
      match Protocol.response_of_line line with
      | Ok r' -> Protocol.response_to_line r' = line
      | Error _ -> false)

(* executed results (including verdicts and typed errors) survive the
   wire: encode, decode, re-encode is the identity on the bytes *)
let prop_result_round_trip =
  QCheck.Test.make ~count:20 ~name:"protocol: executed results round trip"
    (QCheck.make gen_job) (fun job ->
      let result =
        Run.run ~budget:{ Run.max_cycles = Some 200_000; max_states = None }
          job
      in
      let line = Json.to_compact (Jresult.to_json result) in
      Json.to_compact (Jresult.to_json (Jresult.of_json (Json.parse line)))
      = line)

(* ---------------- helpers ---------------- *)

let result_line r = Json.to_compact (Jresult.to_json r)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let submit_ok server job =
  match
    Server.handle server
      (Protocol.Submit { job; budget = Run.no_budget; wait = false })
  with
  | Server.Reply (Protocol.Submitted { id; cached }) -> (id, cached)
  | Server.Reply r ->
      Alcotest.failf "unexpected response: %s" (Protocol.response_to_line r)
  | Server.Park _ -> Alcotest.fail "unexpected park"

let fetch server id =
  match Server.result_response server id with
  | Protocol.Job_result { result; _ } -> result
  | r -> Alcotest.failf "no result: %s" (Protocol.response_to_line r)

let some_jobs =
  [
    Job.Litmus { Job.program = "mp_fence"; models = []; limit = None };
    Job.Litmus { Job.program = "sb"; models = [ "pmc"; "sc" ]; limit = None };
    Job.Check
      {
        Job.name = "ok";
        source =
          "program t\nobj x 4\nthread\n  entry_x x\n  write x\n  exit_x x\n";
      };
    Job.Bench
      {
        Job.app = "reduce";
        backend = "dsm";
        topology = "star";
        cores = 4;
        scale = 8;
        unbatched = false;
        warmup = 0;
        repeat = 1;
      };
    Job.Chaos
      {
        Job.c_app = "histogram";
        c_backend = "swcc";
        c_topology = "star";
        c_cores = 4;
        c_scale = 4;
        seed = 3;
        intensity = 1.0;
        model_check = true;
        replay_budget = None;
      };
  ]

(* ---------------- cache ---------------- *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" "1";
  Cache.add c "b" "2";
  Alcotest.(check (option string)) "a present" (Some "1") (Cache.find c "a");
  (* 'b' is now least recently used; inserting 'c' evicts it *)
  Cache.add c "c" "3";
  Alcotest.(check (option string)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option string)) "a kept" (Some "1") (Cache.find c "a");
  Alcotest.(check (option string)) "c kept" (Some "3") (Cache.find c "c");
  Alcotest.(check int) "size bounded" 2 (Cache.size c)

let test_cache_hit_is_byte_identical () =
  Pmc_par.Pool.with_pool ~jobs:1 (fun pool ->
      let server = Server.create pool in
      List.iter
        (fun job ->
          let id1, cached1 = submit_ok server job in
          Alcotest.(check bool) "first submission is fresh" false cached1;
          Server.drain server;
          let id2, cached2 = submit_ok server job in
          Alcotest.(check bool) "resubmission hits the cache" true cached2;
          let fresh = result_line (fetch server id1) in
          let hit = result_line (fetch server id2) in
          Alcotest.(check string) "cache hit == fresh run" fresh hit;
          (* and equal to a run outside the server entirely *)
          Alcotest.(check string) "fresh run == one-shot run" fresh
            (result_line (Run.run job)))
        some_jobs;
      let s = Server.stats server in
      Alcotest.(check int) "one hit per job" (List.length some_jobs)
        s.Protocol.cache_hits)

(* ---------------- concurrency ---------------- *)

let test_concurrent_determinism_jobs2 () =
  (* the same batch through a width-2 server and through bare one-shot
     runs must produce byte-identical result lines *)
  let expected = List.map (fun j -> result_line (Run.run j)) some_jobs in
  Pmc_par.Pool.with_pool ~jobs:2 (fun pool ->
      let server = Server.create pool in
      let ids = List.map (fun j -> fst (submit_ok server j)) some_jobs in
      Server.drain server;
      let got = List.map (fun id -> result_line (fetch server id)) ids in
      Alcotest.(check (list string)) "width 2 == one-shot" expected got)

(* ---------------- budgets and admission ---------------- *)

let test_budget_exceeded_rejection () =
  (* per-request budget *)
  let job = Job.Litmus { Job.program = "iriw"; models = []; limit = None } in
  (match Run.run ~budget:{ Run.max_cycles = None; max_states = Some 5 } job with
  | Jresult.Error { kind = Jresult.Budget_exceeded; _ } as r ->
      Alcotest.(check int) "budget error exits 2" 2 (Jresult.exit_code r)
  | r -> Alcotest.failf "expected budget error, got %s" (result_line r));
  (* server-wide ceiling applies to jobs that carry no budget *)
  Pmc_par.Pool.with_pool ~jobs:1 (fun pool ->
      let server =
        Server.create
          ~budget:{ Run.max_cycles = None; max_states = Some 5 }
          pool
      in
      let id, _ = submit_ok server job in
      Server.drain server;
      match fetch server id with
      | Jresult.Error { kind = Jresult.Budget_exceeded; _ } -> ()
      | r -> Alcotest.failf "expected budget error, got %s" (result_line r))

(* The refusal names the budget that was set: [pmc_serve submit litmus
   -p iriw --limit 10] prints exactly this, locally and from the daemon. *)
let test_budget_text_names_the_limit () =
  let job = Job.Litmus { Job.program = "iriw"; models = []; limit = Some 10 } in
  Alcotest.(check string) "submit text"
    "error (budget-exceeded): state space exceeded the 10-state budget\n"
    (Fmt.str "%a" Jresult.pp (Run.run job))

let test_admission_control () =
  Pmc_par.Pool.with_pool ~jobs:1 (fun pool ->
      (* width 1 and no steps: submitted jobs stay queued, so the
         second distinct submission must bounce *)
      let server = Server.create ~max_queue:1 pool in
      let j1 = List.nth some_jobs 0 and j2 = List.nth some_jobs 1 in
      ignore (submit_ok server j1);
      (match
         Server.handle server
           (Protocol.Submit { job = j2; budget = Run.no_budget; wait = false })
       with
      | Server.Reply (Protocol.Rejected { reason }) ->
          Alcotest.(check bool) "typed pmc_serve context" true
            (contains reason "pmc_serve");
          Alcotest.(check bool) "names the queue" true
            (contains reason "queue full")
      | _ -> Alcotest.fail "expected an admission rejection");
      let s = Server.stats server in
      Alcotest.(check int) "rejection counted" 1 s.Protocol.rejected;
      Server.drain server;
      (* a draining server rejects new work with a typed reason too *)
      (match Server.handle server Protocol.Shutdown with
      | Server.Reply (Protocol.Shutdown_started _) -> ()
      | _ -> Alcotest.fail "expected shutdown ack");
      match
        Server.handle server
          (Protocol.Submit { job = j2; budget = Run.no_budget; wait = false })
      with
      | Server.Reply (Protocol.Rejected { reason }) ->
          Alcotest.(check bool) "draining reason" true
            (contains reason "draining")
      | _ -> Alcotest.fail "expected a draining rejection")

(* ---------------- socket end to end ---------------- *)

let with_daemon ~jobs f =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pmc_serve_test_%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Pmc_par.Pool.with_pool ~jobs (fun pool ->
      let server = Server.create pool in
      let t = Thread.create (fun () -> Daemon.serve ~socket_path:path server) () in
      (* wait for the daemon to bind *)
      let rec connect tries =
        match Client.connect path with
        | c -> c
        | exception Unix.Unix_error _ when tries > 0 ->
            Thread.delay 0.02;
            connect (tries - 1)
      in
      let c = connect 250 in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          Thread.join t)
        (fun () -> f path c))

let submit_wait c job =
  match
    Client.request c (Protocol.Submit { job; budget = Run.no_budget; wait = true })
  with
  | Protocol.Job_result { result; _ } -> result
  | r -> Alcotest.failf "unexpected response: %s" (Protocol.response_to_line r)

let test_socket_round_trip_and_cache () =
  with_daemon ~jobs:1 (fun _path c ->
      let job = List.nth some_jobs 1 in
      let fresh = result_line (submit_wait c job) in
      Alcotest.(check string) "daemon == one-shot" (result_line (Run.run job))
        fresh;
      let again = result_line (submit_wait c job) in
      Alcotest.(check string) "warm daemon == fresh" fresh again;
      (match Client.request c Protocol.Stats with
      | Protocol.Stats_reply s ->
          Alcotest.(check bool) "resubmission hit the cache" true
            (s.Protocol.cache_hits >= 1)
      | r -> Alcotest.failf "unexpected: %s" (Protocol.response_to_line r));
      (* shut the daemon down so with_daemon's join returns *)
      match Client.request c Protocol.Shutdown with
      | Protocol.Shutdown_started _ -> ()
      | r -> Alcotest.failf "unexpected: %s" (Protocol.response_to_line r))

let test_shutdown_drains_parked_replies () =
  with_daemon ~jobs:1 (fun path c ->
      (* pipeline: a wait-mode submission, then shutdown, on one
         connection.  The daemon must answer the shutdown immediately
         but keep running until the parked result has been delivered. *)
      let job = List.nth some_jobs 0 in
      Client.send c
        (Protocol.Submit { job; budget = Run.no_budget; wait = true });
      Client.send c Protocol.Shutdown;
      (* Both replies must arrive before the daemon closes the
         connection; their order depends on whether the worker finishes
         before the daemon reads the pipelined shutdown, so accept
         either interleaving. *)
      let r1 = Client.recv c and r2 = Client.recv c in
      let ack = ref false and drained = ref None in
      List.iter
        (function
          | Protocol.Shutdown_started _ -> ack := true
          | Protocol.Job_result { result; _ } -> drained := Some result
          | r ->
              Alcotest.failf "unexpected reply: %s"
                (Protocol.response_to_line r))
        [ r1; r2 ];
      Alcotest.(check bool) "shutdown acked" true !ack;
      (match !drained with
      | Some result ->
          Alcotest.(check string) "drained result == one-shot"
            (result_line (Run.run job))
            (result_line result)
      | None -> Alcotest.fail "parked result never delivered");
      ignore path)

let test_concurrent_clients_over_socket () =
  with_daemon ~jobs:2 (fun path c ->
      let batch_a = [ List.nth some_jobs 0; List.nth some_jobs 3 ] in
      let batch_b = [ List.nth some_jobs 1; List.nth some_jobs 4 ] in
      let results_b = ref [] in
      let t =
        Thread.create
          (fun () ->
            Client.with_connection path (fun c2 ->
                results_b :=
                  List.map (fun j -> result_line (submit_wait c2 j)) batch_b))
          ()
      in
      let results_a = List.map (fun j -> result_line (submit_wait c j)) batch_a in
      Thread.join t;
      Alcotest.(check (list string)) "client A == one-shot"
        (List.map (fun j -> result_line (Run.run j)) batch_a)
        results_a;
      Alcotest.(check (list string)) "client B == one-shot"
        (List.map (fun j -> result_line (Run.run j)) batch_b)
        !results_b;
      match Client.request c Protocol.Shutdown with
      | Protocol.Shutdown_started _ -> ()
      | r -> Alcotest.failf "unexpected: %s" (Protocol.response_to_line r))

let suite =
  ( "serve",
    [
      QCheck_alcotest.to_alcotest prop_request_round_trip;
      QCheck_alcotest.to_alcotest prop_response_round_trip;
      QCheck_alcotest.to_alcotest prop_result_round_trip;
      Alcotest.test_case "cache LRU eviction order" `Quick test_cache_lru;
      Alcotest.test_case "cache hit byte-identical to fresh run" `Slow
        test_cache_hit_is_byte_identical;
      Alcotest.test_case "width-2 server deterministic" `Quick
        test_concurrent_determinism_jobs2;
      Alcotest.test_case "budget exceeded is a typed error" `Quick
        test_budget_exceeded_rejection;
      Alcotest.test_case "budget text names the limit" `Quick
        test_budget_text_names_the_limit;
      Alcotest.test_case "admission control rejects over max-queue" `Quick
        test_admission_control;
      Alcotest.test_case "socket round trip + verdict cache" `Quick
        test_socket_round_trip_and_cache;
      Alcotest.test_case "shutdown drains parked replies" `Quick
        test_shutdown_drains_parked_replies;
      Alcotest.test_case "concurrent clients deterministic" `Quick
        test_concurrent_clients_over_socket;
    ] )
