(* pmc_bench harness tests plus the batching equivalence/performance
   contract:

     - JSON printer/parser roundtrip (unit + qcheck over random trees)
     - report save/load roundtrip
     - compare semantics: tolerance bands, missing cases, broken samples,
       tolerance-override parsing
     - qcheck property: the batched machine (multicast, lazy DSM
       versions, burst maintenance) and the unbatched one produce the
       same checksums and PMC-consistent replays across seeds, apps and
       back-ends — batching changes timing, never observable values
     - the batching performance gate: DSM streaming/stencil at 32 cores
       must be at least 20% faster batched than unbatched *)

open Pmc_sim
module J = Pmc_bench.Json

(* ---------------- json ---------------- *)

let test_json_roundtrip_unit () =
  let v =
    J.Obj
      [
        ("schema", J.int 1);
        ("label", J.Str "base \"line\"\n");
        ("ok", J.Bool true);
        ("none", J.Null);
        ("xs", J.List [ J.int 0; J.int (-42); J.Str "x" ]);
        ("nested", J.Obj [ ("k", J.List []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (J.parse (J.to_string v) = v);
  Alcotest.check_raises "trailing garbage"
    (J.Parse_error "trailing garbage at byte 5") (fun () ->
      ignore (J.parse "null x"))

(* Random trees restricted to integral numbers: non-integral floats are
   printed with limited precision, so exact roundtrip holds only for the
   integers the harness actually emits. *)
let gen_json =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map J.int (int_range (-1_000_000) 1_000_000);
        map (fun s -> J.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  sized @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (1, map (fun l -> J.List l)
                  (list_size (int_range 0 4) (self (n / 2))));
            (1, map (fun kvs -> J.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair key (self (n / 2)))));
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:200 ~name:"json: parse (to_string v) = v"
    (QCheck.make gen_json)
    (fun v -> J.parse (J.to_string v) = v)

(* ---------------- synthetic reports for compare ---------------- *)

let mk_sample ?(ok = true) ?(deterministic = true) ?(flits = 1000)
    ?(flushes = 50) ?(handovers = 100) ?(rate = 0.0) ~cycles app =
  {
    Pmc_bench.Measure.case =
      { Pmc_bench.Spec.app; backend = Pmc.Backends.Swcc;
        topology = Pmc_sim.Topology.Star; cores = 4; scale = 8;
        work = Pmc_bench.Spec.Sim };
    ok;
    deterministic;
    repeats = 1;
    metrics =
      {
        Pmc_bench.Measure.cycles;
        noc_flits = flits;
        noc_writes = 0;
        flushes;
        lock_acquires = 2 * handovers;
        lock_transfers = handovers;
        dcache_misses = 7;
        instructions = 1234;
        utilization = 0.5;
        requests = 0;
        p50 = 0;
        p99 = 0;
        p999 = 0;
        lat_digest = 0;
        throughput = 0.0;
      };
    host_s = 0.001;
    host_cycles_per_s = rate;
    minor_words = 0.0;
  }

let mk_report samples =
  {
    Pmc_bench.Report.schema = Pmc_bench.Measure.schema_version;
    label = "t";
    suite = "synthetic";
    unbatched = false;
    jobs = 1;
    samples;
  }

let verdict_of outcome ~metric =
  let row =
    List.find
      (fun (r : Pmc_bench.Compare.row) -> r.Pmc_bench.Compare.metric = metric)
      outcome.Pmc_bench.Compare.rows
  in
  row.Pmc_bench.Compare.verdict

let test_compare_tolerance () =
  let base = mk_report [ mk_sample ~cycles:1000 "a" ] in
  let gate cur = Pmc_bench.Compare.run ~base ~cur () in
  (* +1.5% is inside the 2% cycles band *)
  let o = gate (mk_report [ mk_sample ~cycles:1015 "a" ]) in
  Alcotest.(check bool) "within band passes" true (Pmc_bench.Compare.ok o);
  (* +2.5% regresses *)
  let o = gate (mk_report [ mk_sample ~cycles:1025 "a" ]) in
  Alcotest.(check bool) "regression fails" false (Pmc_bench.Compare.ok o);
  Alcotest.(check bool) "cycles flagged" true
    (verdict_of o ~metric:"cycles" = Pmc_bench.Compare.Regressed);
  (* -20% improves, still passes *)
  let o = gate (mk_report [ mk_sample ~cycles:800 "a" ]) in
  Alcotest.(check bool) "improvement passes" true (Pmc_bench.Compare.ok o);
  Alcotest.(check bool) "cycles improved" true
    (verdict_of o ~metric:"cycles" = Pmc_bench.Compare.Improved);
  (* lock handovers have the wider 10% band *)
  let o = gate (mk_report [ mk_sample ~cycles:1000 ~handovers:108 "a" ]) in
  Alcotest.(check bool) "8% more handovers tolerated" true
    (Pmc_bench.Compare.ok o);
  (* a zero baseline only accepts a zero current value *)
  let base0 = mk_report [ mk_sample ~cycles:1000 ~flits:0 "a" ] in
  let o =
    Pmc_bench.Compare.run ~base:base0
      ~cur:(mk_report [ mk_sample ~cycles:1000 ~flits:3 "a" ])
      ()
  in
  Alcotest.(check bool) "0 -> 3 flits regresses" false
    (Pmc_bench.Compare.ok o)

let test_compare_shape () =
  let base = mk_report [ mk_sample ~cycles:1000 "a"; mk_sample ~cycles:1 "b" ]
  in
  (* a case disappearing fails the gate; a new one does not *)
  let o =
    Pmc_bench.Compare.run ~base
      ~cur:(mk_report [ mk_sample ~cycles:1000 "a"; mk_sample ~cycles:9 "c" ])
      ()
  in
  Alcotest.(check bool) "missing case fails" false (Pmc_bench.Compare.ok o);
  Alcotest.(check int) "one missing" 1
    (List.length o.Pmc_bench.Compare.missing);
  Alcotest.(check int) "one added" 1 (List.length o.Pmc_bench.Compare.added);
  (* checksum or determinism failure in the current report fails *)
  let o =
    Pmc_bench.Compare.run ~base:(mk_report [ mk_sample ~cycles:10 "a" ])
      ~cur:(mk_report [ mk_sample ~ok:false ~cycles:10 "a" ])
      ()
  in
  Alcotest.(check bool) "broken sample fails" false (Pmc_bench.Compare.ok o)

let test_tolerance_overrides () =
  let t = Pmc_bench.Compare.parse_tolerance_overrides "cycles=0.5" in
  Alcotest.(check (float 1e-9)) "cycles overridden" 0.5
    (List.assoc "cycles" t);
  Alcotest.(check (float 1e-9)) "others kept" 0.02
    (List.assoc "noc_flits" t);
  Alcotest.(check bool) "unknown metric rejected" true
    (try
       ignore (Pmc_bench.Compare.parse_tolerance_overrides "nope=1");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad value rejected" true
    (try
       ignore (Pmc_bench.Compare.parse_tolerance_overrides "cycles=-1");
       false
     with Invalid_argument _ -> true)

let test_report_roundtrip () =
  let path = Filename.temp_file "pmc_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r =
        mk_report [ mk_sample ~cycles:123 "a"; mk_sample ~cycles:456 "b" ]
      in
      Pmc_bench.Report.save path r;
      let r' = Pmc_bench.Report.load path in
      Alcotest.(check int) "samples survive" 2
        (List.length r'.Pmc_bench.Report.samples);
      List.iter2
        (fun (a : Pmc_bench.Measure.sample) (b : Pmc_bench.Measure.sample) ->
          Alcotest.(check string) "case id"
            (Pmc_bench.Spec.case_id a.Pmc_bench.Measure.case)
            (Pmc_bench.Spec.case_id b.Pmc_bench.Measure.case);
          Alcotest.(check int) "cycles"
            a.Pmc_bench.Measure.metrics.Pmc_bench.Measure.cycles
            b.Pmc_bench.Measure.metrics.Pmc_bench.Measure.cycles)
        r.Pmc_bench.Report.samples r'.Pmc_bench.Report.samples;
      (* a future schema version must be rejected, not misread *)
      let bumped =
        match Pmc_bench.Report.to_json r with
        | J.Obj kvs ->
            J.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "schema" then (k, J.int 999) else (k, v))
                 kvs)
        | _ -> assert false
      in
      Alcotest.(check bool) "future schema rejected" true
        (try
           ignore (Pmc_bench.Report.of_json bumped);
           false
         with Failure _ -> true))

let test_host_rate_gate () =
  let base = mk_report [ mk_sample ~cycles:1000 ~rate:1e6 "a" ] in
  let gate cur = Pmc_bench.Compare.run ~base ~cur () in
  (* 0.7x of the baseline rate is above the 0.6 floor *)
  let o = gate (mk_report [ mk_sample ~cycles:1000 ~rate:7e5 "a" ]) in
  Alcotest.(check bool) "0.7x rate passes" true (Pmc_bench.Compare.ok o);
  (* 0.5x collapses through the floor *)
  let o = gate (mk_report [ mk_sample ~cycles:1000 ~rate:5e5 "a" ]) in
  Alcotest.(check bool) "0.5x rate fails" false (Pmc_bench.Compare.ok o);
  Alcotest.(check int) "one rate failure" 1
    (List.length (Pmc_bench.Compare.rate_failures o));
  (* a rate-less report (zero host time) never gates *)
  let o =
    Pmc_bench.Compare.run
      ~base:(mk_report [ mk_sample ~cycles:1000 ~rate:0.0 "a" ])
      ~cur:(mk_report [ mk_sample ~cycles:1000 ~rate:5e5 "a" ])
      ()
  in
  Alcotest.(check bool) "no baseline rate, no gate" true
    (Pmc_bench.Compare.ok o);
  (* a faster current run obviously passes *)
  let o = gate (mk_report [ mk_sample ~cycles:1000 ~rate:5e6 "a" ]) in
  Alcotest.(check bool) "faster passes" true (Pmc_bench.Compare.ok o)

(* Only schema-5 encodings decode: every loader default for an older
   encoding is gone, so each of these must raise the typed [Failure]
   rather than load with made-up values.  Each input is a current
   encoding with one field changed or dropped. *)
let drop key = function
  | J.Obj kvs -> J.Obj (List.filter (fun (k, _) -> k <> key) kvs)
  | j -> j

let edit key f = function
  | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) kvs)
  | j -> j

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Failure _ -> ()

let current_report () =
  Pmc_bench.Report.to_json (mk_report [ mk_sample ~cycles:5000 "a" ])

let current_sample () =
  Pmc_bench.Measure.sample_to_json (mk_sample ~cycles:5000 "a")

let current_bench_result () =
  Pmc_jobs.Result.to_json
    (Pmc_jobs.Result.Bench_measured
       { Pmc_jobs.Result.id = "a/swcc/c4/s8"; b_ok = true;
         deterministic = true; repeats = 1;
         metrics = (mk_sample ~cycles:5000 "a").Pmc_bench.Measure.metrics })

let current_bench_job () =
  Pmc_jobs.Job.to_json
    (Pmc_jobs.Job.Bench
       { Pmc_jobs.Job.app = "stencil"; backend = "dsm"; topology = "star";
         cores = 4; scale = 8; unbatched = false; warmup = 0; repeat = 1 })

let current_chaos_job () =
  Pmc_jobs.Job.to_json
    (Pmc_jobs.Job.Chaos
       { Pmc_jobs.Job.c_app = "stencil"; c_backend = "dsm";
         c_topology = "star"; c_cores = 4; c_scale = 8; seed = 1;
         intensity = 1.0; model_check = true; replay_budget = None })

(* the unedited current encodings are what the rejections start from *)
let test_current_encodings_load () =
  ignore (Pmc_bench.Report.of_json (current_report ()));
  ignore (Pmc_bench.Measure.sample_of_json (current_sample ()));
  ignore (Pmc_jobs.Result.of_json (current_bench_result ()));
  ignore (Pmc_jobs.Job.of_json (current_bench_job ()));
  ignore (Pmc_jobs.Job.of_json (current_chaos_job ()))

let test_schema4_report_rejected () =
  rejects "schema-4 report" (fun () ->
      Pmc_bench.Report.of_json
        (edit "schema" (fun _ -> J.int 4) (current_report ())))

let test_sample_without_minor_words_rejected () =
  rejects "sample without minor_words" (fun () ->
      Pmc_bench.Measure.sample_of_json (drop "minor_words" (current_sample ())))

let test_sample_without_topology_rejected () =
  rejects "sample without topology" (fun () ->
      Pmc_bench.Measure.sample_of_json (drop "topology" (current_sample ())))

let test_bench_result_without_p50_rejected () =
  rejects "bench result without p50" (fun () ->
      Pmc_jobs.Result.of_json
        (edit "metrics" (drop "p50") (current_bench_result ())))

let test_bench_job_without_topology_rejected () =
  rejects "bench job without topology" (fun () ->
      Pmc_jobs.Job.of_json (drop "topology" (current_bench_job ())))

let test_chaos_job_without_topology_rejected () =
  rejects "chaos job without topology" (fun () ->
      Pmc_jobs.Job.of_json (drop "topology" (current_chaos_job ())))

let test_trimmed_mean () =
  Alcotest.(check (float 1e-9)) "outliers dropped" 2.0
    (Pmc_bench.Measure.trimmed_mean [ 100.0; 2.0; 2.0; 2.0; 0.0 ]);
  Alcotest.(check (float 1e-9)) "pair averaged" 1.5
    (Pmc_bench.Measure.trimmed_mean [ 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Pmc_bench.Measure.trimmed_mean [])

(* ---------------- batched/unbatched equivalence ---------------- *)

(* Batching (multicast flush, lazy DSM versioning, burst cache
   maintenance, tight local polling) may change who transfers what and
   when — never the values any core observes.  For random seeds, apps
   and back-ends: both machines produce the reference checksum and a
   complete trace that replays PMC-consistently through the model. *)
let equiv_cases = [ ("histogram", 8); ("stencil", 4) ]
let equiv_backends =
  [ Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm ]

let arb_equiv =
  let print (seed, (app, scale), backend) =
    Printf.sprintf "seed=%d %s/%d on %s" seed app scale
      (Pmc.Backends.to_string backend)
  in
  QCheck.make ~print
    QCheck.Gen.(
      triple (int_range 0 10_000) (oneofl equiv_cases)
        (oneofl equiv_backends))

let run_traced cfg app ~backend ~scale =
  let recorder = ref None in
  let r =
    Pmc_apps.Runner.run ~cfg
      ~on_api:(fun api -> recorder := Some (Pmc_trace.Recorder.attach api))
      app ~backend ~scale
  in
  let rec_ = Option.get !recorder in
  let complete = Pmc_trace.Recorder.dropped_total rec_ = 0 in
  let report =
    Pmc_trace.Replay.check ~cores:cfg.Config.cores
      (Pmc_trace.Recorder.events rec_)
  in
  (r, complete, Pmc_model.History.ok report)

let prop_batching_equivalence =
  QCheck.Test.make ~count:12
    ~name:"batched = unbatched: checksums and model replay"
    arb_equiv
    (fun (seed, (app_name, scale), backend) ->
      let app = Option.get (Pmc_apps.Registry.find app_name) in
      let base = { Config.small with cores = 4; seed } in
      let rb, cb, okb = run_traced base app ~backend ~scale in
      let ru, cu, oku =
        run_traced { base with Config.batched = false } app ~backend ~scale
      in
      Pmc_apps.Runner.ok rb && Pmc_apps.Runner.ok ru
      && rb.Pmc_apps.Runner.checksum = ru.Pmc_apps.Runner.checksum
      && cb && cu && okb && oku)

(* ---------------- the batching performance gate ---------------- *)

let test_batching_gate () =
  List.iter
    (fun (name, scale) ->
      let app = Option.get (Pmc_apps.Registry.find name) in
      let wall cfg =
        let r = Pmc_apps.Runner.run ~cfg app ~backend:Pmc.Backends.Dsm ~scale in
        Alcotest.(check bool) (name ^ " checksum") true
          (Pmc_apps.Runner.ok r);
        r.Pmc_apps.Runner.wall
      in
      let base = { Config.default with cores = 32 } in
      let b = wall base in
      let u = wall { base with Config.batched = false } in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batched (%d) ≤ 0.8 × unbatched (%d)" name b u)
        true
        (float_of_int b <= 0.8 *. float_of_int u))
    [ ("streaming", 64); ("stencil", 16) ]

(* ---------------- the check suite ---------------- *)

(* The tentpole regression guard: a kv_store-scale trace (8 processes,
   locked accesses throughout) of ~100k events must replay to a verdict
   in interactive time.  Under the pre-incremental checker this replay
   recomputed readable-writes closures per read and took hours — the
   very reason the old chaos replay budget was capped at 10k events. *)
let test_replay_100k_events () =
  let events = 100_000 in
  let t0 = Unix.gettimeofday () in
  let o = Pmc_bench.Checkload.replay ~procs:8 ~locs:16 ~events in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "all events replayed" events o.Pmc_bench.Checkload.work;
  Alcotest.(check bool) "consistent trace verdict" true
    o.Pmc_bench.Checkload.ok;
  Alcotest.(check bool)
    (Printf.sprintf "verdict within interactive time (%.2fs)" dt)
    true (dt < 60.0)

(* A check case measured through the ordinary [Measure.run_case] path:
   deterministic work count in [cycles], digest pinned, rate recorded. *)
let test_check_case_measured () =
  let case =
    { Pmc_bench.Spec.app = "replay"; backend = Pmc.Backends.Nocc;
      topology = Pmc_sim.Topology.Star; cores = 4; scale = 20_000;
      work = Pmc_bench.Spec.Check_replay }
  in
  let s =
    Pmc_bench.Measure.run_case ~unbatched:false ~warmup:0 ~repeat:2 case
  in
  Alcotest.(check bool) "ok" true s.Pmc_bench.Measure.ok;
  Alcotest.(check bool) "deterministic" true
    s.Pmc_bench.Measure.deterministic;
  Alcotest.(check int) "cycles = events" 20_000
    s.Pmc_bench.Measure.metrics.Pmc_bench.Measure.cycles;
  Alcotest.(check bool) "rate recorded" true
    (s.Pmc_bench.Measure.host_cycles_per_s > 0.0);
  (* the sample round-trips through schema-5 JSON with its work kind *)
  let s' =
    Pmc_bench.Measure.sample_of_json (Pmc_bench.Measure.sample_to_json s)
  in
  Alcotest.(check bool) "work kind survives JSON" true
    (s'.Pmc_bench.Measure.case.Pmc_bench.Spec.work
    = Pmc_bench.Spec.Check_replay);
  Alcotest.(check string) "case id" "check/replay/c4/s20000"
    (Pmc_bench.Spec.case_id case)

let test_check_suite_shape () =
  match Pmc_bench.Spec.suite "check" with
  | None -> Alcotest.fail "check suite missing"
  | Some spec ->
      Alcotest.(check (list string)) "three cases, historic ids kept"
        [ "check/replay/c4/s200000"; "check/enum/corpus/s1";
          "check/replay-wide/c4/s20000" ]
        (List.map Pmc_bench.Spec.case_id spec.Pmc_bench.Spec.cases);
      Alcotest.(check (list int)) "replay geometries" [ 8; 512 ]
        (List.filter_map
           (fun (c : Pmc_bench.Spec.case) ->
             if c.Pmc_bench.Spec.work = Pmc_bench.Spec.Check_replay then
               Some (Pmc_bench.Spec.replay_locs c)
             else None)
           spec.Pmc_bench.Spec.cases);
      (match Pmc_bench.Spec.suite "ci" with
      | None -> Alcotest.fail "ci suite missing"
      | Some ci ->
          Alcotest.(check int) "ci = smoke + check"
            (List.length Pmc_bench.Spec.smoke_cases + 3)
            (List.length ci.Pmc_bench.Spec.cases))

let suite =
  ( "bench",
    [
      Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip_unit;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "compare tolerance" `Quick test_compare_tolerance;
      Alcotest.test_case "compare shape" `Quick test_compare_shape;
      Alcotest.test_case "tolerance overrides" `Quick
        test_tolerance_overrides;
      Alcotest.test_case "report roundtrip" `Quick test_report_roundtrip;
      Alcotest.test_case "host rate gate" `Quick test_host_rate_gate;
      Alcotest.test_case "current encodings load" `Quick
        test_current_encodings_load;
      Alcotest.test_case "schema-4 report rejected" `Quick
        test_schema4_report_rejected;
      Alcotest.test_case "sample without minor_words rejected" `Quick
        test_sample_without_minor_words_rejected;
      Alcotest.test_case "sample without topology rejected" `Quick
        test_sample_without_topology_rejected;
      Alcotest.test_case "bench result without p50 rejected" `Quick
        test_bench_result_without_p50_rejected;
      Alcotest.test_case "bench job without topology rejected" `Quick
        test_bench_job_without_topology_rejected;
      Alcotest.test_case "chaos job without topology rejected" `Quick
        test_chaos_job_without_topology_rejected;
      Alcotest.test_case "trimmed mean" `Quick test_trimmed_mean;
      QCheck_alcotest.to_alcotest prop_batching_equivalence;
      Alcotest.test_case "batching perf gate" `Slow test_batching_gate;
      Alcotest.test_case "100k-event replay to verdict" `Quick
        test_replay_100k_events;
      Alcotest.test_case "check case measured" `Quick
        test_check_case_measured;
      Alcotest.test_case "check suite shape" `Quick test_check_suite_shape;
    ] )
