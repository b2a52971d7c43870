(* Test entry point: all suites of the PMC reproduction. *)

let () =
  Alcotest.run "pmc"
    [
      Test_prng.suite;
      Test_model.suite;
      Test_observe.suite;
      Test_litmus.suite;
      Test_engine.suite;
      Test_flat.suite;
      Test_cache.suite;
      Test_sim.suite;
      Test_topology.suite;
      Test_lock.suite;
      Test_runtime.suite;
      Test_fifo.suite;
      Test_compile.suite;
      Test_integration.suite;
      Test_ext.suite;
      Test_differential.suite;
      Test_apps.suite;
      Test_trace.suite;
      Test_bench.suite;
      Test_chaos.suite;
      Test_crash.suite;
      Test_par.suite;
      Test_serve.suite;
      Test_codec.suite;
      Test_boundary.suite;
    ]
