(* The sequential chaos soak: every app × every seed through
   [Chaos.run_one], one after another, summarized by [Chaos.summarize].
   A parallel soak (a batch of chaos jobs through [Pmc_jobs.Run.run_all
   ~pool], as [pmc_chaos soak] runs it) must reproduce it report for
   report. *)

let soak ?model_check ~apps ~backend ~cores ~scale ~seeds () =
  Pmc_apps.Chaos.summarize
    (List.concat_map
       (fun app ->
         List.map
           (fun seed ->
             Pmc_apps.Chaos.run_one ?model_check app ~backend ~cores ~scale
               ~seed)
           seeds)
       apps)
