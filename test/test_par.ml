(* Pool tests: the ordering / exception / width-1 contracts of
   [Pmc_par.Pool], and the invariant the whole PR rests on — a parallel
   fan-out produces byte-identical results to the sequential run for
   soak verdicts, litmus enumeration and benchmark metrics (modulo
   [host_s], the one intentionally wall-clock-dependent field). *)

open Pmc_par

(* ---------------- pool unit tests ---------------- *)

let test_map_ordered_matches_sequential () =
  let input = Array.init 257 (fun i -> i) in
  let f i = (i * i) + 7 in
  let expected = Array.map f input in
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int))
        "jobs=4 map equals sequential map" expected
        (Pool.map_ordered pool input ~f))

let test_jobs1_is_sequential () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "width 1" 1 (Pool.jobs pool);
      (* at width 1 items run inline on the calling domain, in order *)
      let order = ref [] in
      let out =
        Pool.map_ordered pool [| 0; 1; 2; 3 |] ~f:(fun i ->
            order := i :: !order;
            i)
      in
      Alcotest.(check (list int)) "inline, in input order" [ 3; 2; 1; 0 ]
        !order;
      Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3 |] out)

let test_jobs0_uses_recommended () =
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check bool) "at least one domain" true (Pool.jobs pool >= 1))

exception Boom of int

let test_exception_propagates_smallest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map_ordered pool
          (Array.init 64 (fun i -> i))
          ~f:(fun i -> if i >= 5 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
          (* many items fail; the one a sequential left-to-right map
             would have hit first wins, deterministically *)
          Alcotest.(check int) "smallest failing index" 5 i);
  (* the same contract at width 1 *)
  Pool.with_pool ~jobs:1 (fun pool ->
      match
        Pool.map_ordered pool [| 1; 2; 3 |] ~f:(fun i ->
            if i > 1 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i -> Alcotest.(check int) "width 1" 2 i)

let test_pool_survives_exceptions_and_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (try ignore (Pool.map_ordered pool [| 0 |] ~f:(fun _ -> raise Exit))
       with Exit -> ());
      (* the pool must still work for later batches *)
      for round = 1 to 5 do
        let n = 10 * round in
        let out =
          Pool.map_ordered pool (Array.init n (fun i -> i)) ~f:(fun i -> 2 * i)
        in
        Alcotest.(check int) "batch size" n (Array.length out);
        Alcotest.(check int) "last element" (2 * (n - 1)) out.(n - 1)
      done)

let test_nested_map_runs_inline () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let out =
        Pool.map_ordered pool [| 10; 20 |] ~f:(fun base ->
            (* an f that maps on its own pool must not deadlock *)
            Array.fold_left ( + ) 0
              (Pool.map_ordered pool [| 1; 2; 3 |] ~f:(fun i -> base + i)))
      in
      Alcotest.(check (array int)) "nested totals" [| 36; 66 |] out)

let test_shutdown_rejects_further_maps () =
  let pool = Pool.create ~jobs:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map_ordered: pool is shut down") (fun () ->
      ignore (Pool.map_ordered pool [| 1; 2 |] ~f:Fun.id))

(* ---------------- domain-local simulator state ---------------- *)

let test_ids_are_domain_local_and_resettable () =
  (* handle/lock ids restart at 0 after a reset in whichever domain the
     run executes on — the property that makes a run's trace a pure
     function of the run *)
  let first_id () =
    Pmc.Shared.reset_ids ();
    Pmc_lock.Dlock.reset_ids ();
    let m = Pmc_sim.Machine.create Pmc_sim.Config.small in
    let lock = Pmc_lock.Dlock.create m in
    (Pmc.Shared.make ~name:"x" ~size:8 ~lock).Pmc.Shared.id
  in
  Pool.with_pool ~jobs:3 (fun pool ->
      let ids = Pool.map_ordered pool (Array.make 9 ()) ~f:first_id in
      Alcotest.(check (array int))
        "every run allocates from 0, on every domain"
        (Array.make 9 0) ids)

(* ---------------- parallel == sequential: chaos soak ---------------- *)

let soak_with pool ~seeds =
  let apps = List.filter_map Pmc_apps.Registry.find [ "histogram" ] in
  Pmc_apps.Chaos.soak ~model_check:false ?pool ~apps
    ~backend:Pmc.Backends.Dsm ~cores:4 ~scale:6 ~seeds ()

let soak_equal (a : Pmc_apps.Chaos.soak) (b : Pmc_apps.Chaos.soak) =
  a.Pmc_apps.Chaos.reports = b.Pmc_apps.Chaos.reports
  && a.Pmc_apps.Chaos.total = b.Pmc_apps.Chaos.total
  && a.Pmc_apps.Chaos.completed = b.Pmc_apps.Chaos.completed
  && a.Pmc_apps.Chaos.typed_errors = b.Pmc_apps.Chaos.typed_errors
  && a.Pmc_apps.Chaos.failed = b.Pmc_apps.Chaos.failed
  && a.Pmc_apps.Chaos.injected = b.Pmc_apps.Chaos.injected

let prop_parallel_soak_equals_sequential =
  QCheck.Test.make ~count:8
    ~name:"parallel soak verdicts equal sequential, seed-for-seed"
    QCheck.(int_range 1 10_000)
    (fun seed_base ->
      let seeds = [ seed_base; seed_base + 1; seed_base + 2 ] in
      let seq = soak_with None ~seeds in
      Pool.with_pool ~jobs:3 (fun pool ->
          soak_equal seq (soak_with (Some pool) ~seeds)))

let test_parallel_soak_with_replay_identical () =
  (* with the model replay on, too: the recorder/replay path is the part
     with the most per-run state *)
  let apps =
    List.filter_map Pmc_apps.Registry.find [ "histogram"; "reduce" ]
  in
  let soak pool =
    Pmc_apps.Chaos.soak ?pool ~apps ~backend:Pmc.Backends.Dsm ~cores:4
      ~scale:4 ~seeds:[ 1; 2; 3 ] ()
  in
  let seq = soak None in
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check bool)
        "replay-on soak identical at jobs=2" true
        (soak_equal seq (soak (Some pool))))

(* ---------------- parallel == sequential: litmus ---------------- *)

let result_key (r : Pmc_model.Litmus.result) =
  ( r.Pmc_model.Litmus.model,
    Pmc_model.Litmus.outcomes_list r,
    r.Pmc_model.Litmus.states_explored,
    r.Pmc_model.Litmus.stuck_states )

let test_parallel_litmus_equals_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun p ->
          let seq = List.map result_key (Pmc_model.Litmus.compare_models p) in
          let par =
            List.map result_key (Pmc_model.Litmus.compare_models ~pool p)
          in
          Alcotest.(check bool)
            (p.Pmc_model.Lprog.name ^ ": same outcome sets and state counts")
            true (seq = par))
        Pmc_model.Lprog.all_standard;
      Alcotest.(check bool) "strength chain holds on the pool" true
        (Pmc_model.Litmus.strength_chain_holds ~pool
           Pmc_model.Lprog.all_standard))

(* ---------------- parallel == sequential: bench ---------------- *)

let tiny_spec : Pmc_bench.Spec.t =
  {
    Pmc_bench.Spec.label = "par-test";
    suite = "custom";
    unbatched = false;
    warmup = 0;
    repeat = 2;
    cases =
      [
        { Pmc_bench.Spec.app = "histogram"; backend = Pmc.Backends.Dsm;
          topology = Pmc_sim.Topology.Star; cores = 4; scale = 8;
        work = Pmc_bench.Spec.Sim };
        { Pmc_bench.Spec.app = "reduce"; backend = Pmc.Backends.Swcc;
          topology = Pmc_sim.Topology.Star; cores = 4; scale = 64;
          work = Pmc_bench.Spec.Sim };
        { Pmc_bench.Spec.app = "stencil"; backend = Pmc.Backends.Spm;
          topology = Pmc_sim.Topology.Star; cores = 4; scale = 4;
          work = Pmc_bench.Spec.Sim };
      ];
  }

(* host_s, the rate derived from it, and minor words (GC state is
   shared across concurrently measured cases) are the wall-clock- and
   domain-dependent fields *)
let scrub_host (s : Pmc_bench.Measure.sample) =
  { s with Pmc_bench.Measure.host_s = 0.0; host_cycles_per_s = 0.0;
    minor_words = 0.0 }

let test_parallel_bench_equals_sequential_modulo_host () =
  let seq = Pmc_bench.Report.run tiny_spec in
  Pool.with_pool ~jobs:2 (fun pool ->
      let par = Pmc_bench.Report.run ~pool tiny_spec in
      Alcotest.(check int) "jobs recorded" 2 par.Pmc_bench.Report.jobs;
      Alcotest.(check int) "sequential jobs recorded" 1
        seq.Pmc_bench.Report.jobs;
      Alcotest.(check bool)
        "samples identical modulo host_s" true
        (List.map scrub_host seq.Pmc_bench.Report.samples
        = List.map scrub_host par.Pmc_bench.Report.samples))

(* ---------------- report schema compatibility ---------------- *)

let test_report_schema_future_rejected () =
  let v99 =
    Pmc_bench.Json.Obj
      [
        ("schema", Pmc_bench.Json.int 99);
        ("results", Pmc_bench.Json.List []);
      ]
  in
  match Pmc_bench.Report.of_json v99 with
  | _ -> Alcotest.fail "expected a schema rejection"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions the supported range" true
        (String.length msg > 0)

let test_report_roundtrip_keeps_jobs () =
  let r = Pmc_bench.Report.make ~jobs:4 ~spec:tiny_spec [] in
  let r' = Pmc_bench.Report.of_json (Pmc_bench.Report.to_json r) in
  Alcotest.(check int) "jobs survive the round trip" 4
    r'.Pmc_bench.Report.jobs;
  Alcotest.(check int) "current schema" Pmc_bench.Measure.schema_version
    r'.Pmc_bench.Report.schema

let suite =
  ( "par",
    [
      Alcotest.test_case "map_ordered equals sequential map" `Quick
        test_map_ordered_matches_sequential;
      Alcotest.test_case "jobs=1 runs inline, in order" `Quick
        test_jobs1_is_sequential;
      Alcotest.test_case "jobs=0 uses the recommended width" `Quick
        test_jobs0_uses_recommended;
      Alcotest.test_case "smallest-index exception propagates" `Quick
        test_exception_propagates_smallest_index;
      Alcotest.test_case "pool survives exceptions and reuse" `Quick
        test_pool_survives_exceptions_and_reuse;
      Alcotest.test_case "nested maps run inline" `Quick
        test_nested_map_runs_inline;
      Alcotest.test_case "shutdown is final and idempotent" `Quick
        test_shutdown_rejects_further_maps;
      Alcotest.test_case "ids are domain-local and resettable" `Quick
        test_ids_are_domain_local_and_resettable;
      QCheck_alcotest.to_alcotest prop_parallel_soak_equals_sequential;
      Alcotest.test_case "replay-on soak identical in parallel" `Slow
        test_parallel_soak_with_replay_identical;
      Alcotest.test_case "litmus enumeration identical in parallel" `Slow
        test_parallel_litmus_equals_sequential;
      Alcotest.test_case "bench samples identical modulo host_s" `Slow
        test_parallel_bench_equals_sequential_modulo_host;
      Alcotest.test_case "future schema rejected" `Quick
        test_report_schema_future_rejected;
      Alcotest.test_case "jobs survive a JSON round trip" `Quick
        test_report_roundtrip_keeps_jobs;
    ] )
