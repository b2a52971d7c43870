(* Prints the canonical JSON lines of a few executed jobs: the job key,
   then the compact [Result.to_json] encoding — the bytes the pmc_serve
   daemon sends and caches.

   The serve tests compare new code against new code (a round trip, or
   daemon against one-shot CLI), so only this golden catches a change to
   the result codecs themselves, or to the simulated numbers they carry
   (the unbatched bench jobs pin the pre-batching cost model).  The
   committed wire_golden.expected must stay byte-identical; regenerate it
   only for a change that is meant to alter the wire format or timing:

     dune build @all && _build/default/test/wire_digest.exe \
       > test/wire_golden.expected *)

module Job = Pmc_jobs.Job

let bench ?(unbatched = false) app backend ~cores ~scale =
  Job.Bench
    { Job.app; backend; topology = "star"; cores; scale; unbatched;
      warmup = 0; repeat = 1 }

let jobs =
  [
    Job.Litmus { Job.program = "sb"; models = []; limit = None };
    bench "streaming" "dsm" ~cores:4 ~scale:8;
    bench ~unbatched:true "streaming" "dsm" ~cores:4 ~scale:8;
    bench ~unbatched:true "stencil" "swcc" ~cores:4 ~scale:4;
    bench ~unbatched:true "stencil" "spm" ~cores:4 ~scale:4;
    bench "kv_store" "nocc" ~cores:4 ~scale:2;
    Job.Chaos
      { Job.c_app = "stencil"; c_backend = "dsm"; c_topology = "star";
        c_cores = 4; c_scale = 4; seed = 7; intensity = 2.0;
        model_check = true; replay_budget = None };
    Job.Crash
      { Job.x_app = "reduce"; x_backend = "farmem"; x_topology = "star";
        x_cores = 4; x_scale = 6; x_seed = 3; x_window = 3_000;
        x_log = true; x_model_check = true; x_replay_budget = None };
  ]

let () =
  List.iter
    (fun job ->
      print_endline (Job.key job);
      print_endline
        (Pmc_bench.Json.to_compact
           (Pmc_jobs.Result.to_json (Pmc_jobs.Run.run job))))
    jobs
