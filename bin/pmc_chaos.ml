(* pmc_chaos — fault-injection soak harness CLI.

     pmc_chaos soak --seeds 20 --backend dsm
         run every registered app under 20 seeded fault schedules;
         each run must complete correctly or fail with a typed error —
         a silent wrong answer (exit 3) or a PMC-inconsistent trace
         (exit 4) fails the soak;
     pmc_chaos soak --seeds 20 --smoke
         the CI gate: three kernels at a small geometry;
     pmc_chaos run --app stencil --seed 7 --intensity 2.0
         one seeded run with its full fault and verdict report;
     pmc_chaos crash --seeds 0..255 --backend farmem
         power-cut crash-recovery experiments on the far-memory tier:
         each seed's run is cut at a deterministic cycle, recovery
         replays the redo log from the durable image, and the checker
         requires no torn object (exit 3) and a PMC-consistent durable
         prefix (exit 4);
     pmc_chaos zerocost --baseline BENCH_BASELINE.json
         assert the zero-cost-when-off invariant: disarmed chaos
         machines ([Config.no_faults (Config.chaos ...)]) reproduce the
         fault-free runs bit for bit, including the committed benchmark
         baseline's architectural metrics.

   Seeded runs go through the shared Pmc_jobs layer — the same code
   path the pmc_serve daemon runs.  Exit codes follow the documented
   convention: 0 success; 2 input error; 3 property failure (wrong
   result, zerocost difference); 4 formal PMC-model inconsistency. *)

open Cmdliner
open Pmc_sim

let parse_backend s =
  match Pmc.Backends.of_string s with
  | Some b -> b
  | None ->
      Fmt.epr "unknown backend %S (seqcst|nocc|swcc|dsm|spm|farmem)@." s;
      exit 2

let parse_app s =
  match Pmc_apps.Registry.find s with
  | Some a -> a
  | None ->
      Fmt.epr "unknown app %S; one of: %s@." s
        (String.concat ", " Pmc_apps.Registry.names);
      exit 2

let parse_topology ~cores s =
  match Topology.resolve s ~cores with
  | Ok t -> t
  | Error e ->
      Fmt.epr "%s@." e;
      exit 2

(* The smoke matrix: three kernels with distinct traffic shapes at a
   geometry small enough for CI. *)
let smoke_apps = [ "histogram"; "reduce"; "stencil" ]

(* ---------------- soak ---------------- *)

(* A soak failure exits 4 when any run's model replay found the trace
   PMC-inconsistent, else 3 — wrong results are property failures. *)
let soak_exit_code (reports : Pmc_apps.Chaos.report list) =
  if
    List.exists
      (fun (r : Pmc_apps.Chaos.report) ->
        match r.Pmc_apps.Chaos.verdict with
        | Pmc_apps.Chaos.Inconsistent _ -> true
        | _ -> false)
      reports
  then 4
  else 3

let chaos_job ~app ~backend ~topology ~cores ~scale ~seed ~intensity
    ~model_check ~replay_budget =
  Pmc_jobs.Job.Chaos
    {
      Pmc_jobs.Job.c_app = app;
      c_backend = backend;
      c_topology = topology;
      c_cores = cores;
      c_scale = scale;
      seed;
      intensity;
      model_check;
      replay_budget;
    }

let soak_cmd app backend topology cores scale seeds seed_base intensity smoke
    no_model_check replay_budget jobs quiet =
  ignore (parse_backend backend);
  (* smoke geometry: small enough that every trace fits the replay
     budget and the model checker runs on every completed seed *)
  let cores, scale = if smoke then (4, min scale 4) else (cores, scale) in
  ignore (parse_topology ~cores topology);
  let app_names =
    match app with
    | Some a ->
        ignore (parse_app a);
        [ a ]
    | None ->
        let names = if smoke then smoke_apps else Pmc_apps.Registry.names in
        List.iter (fun a -> ignore (parse_app a)) names;
        names
  in
  let seeds = List.init (max 1 seeds) (fun i -> seed_base + i) in
  (* the wall of seeds as one job batch: apps outer, seeds inner — the
     same run order (and therefore the same bytes) as always *)
  let wall =
    List.concat_map
      (fun a ->
        List.map
          (fun seed ->
            chaos_job ~app:a ~backend ~topology ~cores ~scale ~seed
              ~intensity ~model_check:(not no_model_check) ~replay_budget)
          seeds)
      app_names
  in
  let results =
    Pmc_par.Pool.with_pool ~jobs (fun pool ->
        Pmc_jobs.Run.run_all ~pool wall)
  in
  let reports =
    List.filter_map
      (function
        | Pmc_jobs.Result.Chaos_soaked r -> Some r
        | Pmc_jobs.Result.Error e ->
            Fmt.epr "soak: %s@." e.Pmc_jobs.Result.detail;
            exit 2
        | _ -> None)
      results
  in
  if not quiet then
    List.iter (fun r -> Fmt.pr "%a@." Pmc_apps.Chaos.pp_report r) reports;
  let s = Pmc_apps.Chaos.summarize reports in
  Fmt.pr "%a@." Pmc_apps.Chaos.pp_soak s;
  Fmt.pr "%a@." Pmc_apps.Chaos.pp_tag_summary (Pmc_apps.Chaos.soak_counts s);
  if not (Pmc_apps.Chaos.ok s) then begin
    List.iter
      (fun (r : Pmc_apps.Chaos.report) ->
        if not (Pmc_apps.Chaos.acceptable r.Pmc_apps.Chaos.verdict) then
          Fmt.epr "FAILED: %a@." Pmc_apps.Chaos.pp_report r)
      s.Pmc_apps.Chaos.reports;
    exit (soak_exit_code s.Pmc_apps.Chaos.reports)
  end

(* ---------------- run ---------------- *)

let run_cmd app backend topology cores scale seed intensity no_model_check
    replay_budget =
  ignore (parse_app app);
  ignore (parse_backend backend);
  ignore (parse_topology ~cores topology);
  let r =
    Pmc_jobs.Run.run
      (chaos_job ~app ~backend ~topology ~cores ~scale ~seed ~intensity
         ~model_check:(not no_model_check) ~replay_budget)
  in
  Fmt.pr "%a" Pmc_jobs.Result.pp r;
  (match r with
  | Pmc_jobs.Result.Error e -> Fmt.epr "run: %s@." e.Pmc_jobs.Result.detail
  | _ -> ());
  match Pmc_jobs.Result.exit_code r with 0 -> () | c -> exit c

(* ---------------- crash ---------------- *)

(* --seeds accepts either a count N (seeds seed-base .. seed-base+N-1)
   or an inclusive range A..B. *)
let parse_seed_list ~seed_base s =
  let fail () =
    Fmt.epr "bad --seeds %S: expected a count N or a range A..B@." s;
    exit 2
  in
  match String.split_on_char '.' s with
  | [ n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> List.init n (fun i -> seed_base + i)
      | _ -> fail ())
  | [ a; ""; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when b >= a -> List.init (b - a + 1) (fun i -> a + i)
      | _ -> fail ())
  | _ -> fail ()

let crash_job ~app ~backend ~topology ~cores ~scale ~seed ~window ~log
    ~model_check ~replay_budget =
  Pmc_jobs.Job.Crash
    {
      Pmc_jobs.Job.x_app = app;
      x_backend = backend;
      x_topology = topology;
      x_cores = cores;
      x_scale = scale;
      x_seed = seed;
      x_window = window;
      x_log = log;
      x_model_check = model_check;
      x_replay_budget = replay_budget;
    }

(* Torn objects are property failures (3); an inconsistent durable
   prefix is a formal model violation (4); experiment errors are input/
   runtime errors (2). *)
let crash_exit_code (s : Pmc_apps.Crash.sweep) =
  if s.Pmc_apps.Crash.inconsistent > 0 then 4
  else if s.Pmc_apps.Crash.torn > 0 then 3
  else 2

let crash_cmd app backend topology cores scale seeds seed_base window no_log
    smoke no_model_check replay_budget jobs quiet =
  let b = parse_backend backend in
  let cores, scale = if smoke then (4, min scale 4) else (cores, scale) in
  let topo = parse_topology ~cores topology in
  let app_names =
    match app with
    | Some a ->
        ignore (parse_app a);
        [ a ]
    | None ->
        let names = if smoke then smoke_apps else Pmc_apps.Registry.names in
        List.iter (fun a -> ignore (parse_app a)) names;
        names
  in
  let seeds = parse_seed_list ~seed_base seeds in
  let log = not no_log in
  (* the cut window is learned once per app from its fault-free twin
     (mirroring Crash.sweep), then travels inside each job — the cut
     cycle is fixed by the job encoding alone, at any --jobs width *)
  let window_of =
    match window with
    | Some w -> fun _ -> max 1 w
    | None ->
        let cfg =
          { Config.default with cores; topology = topo; farmem_log = log }
        in
        fun name ->
          let a = parse_app name in
          let r = Pmc_apps.Runner.run ~cfg a ~backend:b ~scale in
          max 1 r.Pmc_apps.Runner.wall
  in
  let windows = List.map (fun a -> (a, window_of a)) app_names in
  let wall =
    List.concat_map
      (fun (a, w) ->
        List.map
          (fun seed ->
            crash_job ~app:a ~backend ~topology ~cores ~scale ~seed ~window:w
              ~log ~model_check:(not no_model_check) ~replay_budget)
          seeds)
      windows
  in
  let results =
    Pmc_par.Pool.with_pool ~jobs (fun pool ->
        Pmc_jobs.Run.run_all ~pool wall)
  in
  let reports =
    List.filter_map
      (function
        | Pmc_jobs.Result.Crash_checked r -> Some r
        | Pmc_jobs.Result.Error e ->
            Fmt.epr "crash: %s@." e.Pmc_jobs.Result.detail;
            exit 2
        | _ -> None)
      results
  in
  if not quiet then
    List.iter (fun r -> Fmt.pr "%a@." Pmc_apps.Crash.pp_report r) reports;
  let s = Pmc_apps.Crash.summarize reports in
  Fmt.pr "%a@." Pmc_apps.Crash.pp_sweep s;
  if not (Pmc_apps.Crash.ok s) then begin
    List.iter
      (fun (r : Pmc_apps.Crash.report) ->
        if not (Pmc_apps.Crash.acceptable r.Pmc_apps.Crash.verdict) then
          Fmt.epr "FAILED: %a@." Pmc_apps.Crash.pp_report r)
      s.Pmc_apps.Crash.reports;
    exit (crash_exit_code s)
  end

(* ---------------- zerocost ---------------- *)

(* Identity matrix: each smoke app on the replication-heavy back-ends. *)
let zerocost_identity ~seed ~quiet =
  let failures = ref 0 in
  List.iter
    (fun name ->
      let app = parse_app name in
      List.iter
        (fun backend ->
          let id =
            Pmc_apps.Chaos.zero_cost_identity app ~backend ~cores:8 ~scale:16
              ~seed
          in
          if id.Pmc_apps.Chaos.identical then begin
            if not quiet then
              Fmt.pr "identical  %-10s %s@." name
                (Pmc.Backends.to_string backend)
          end
          else begin
            incr failures;
            Fmt.epr "DIFFERS    %-10s %s: %s@." name
              (Pmc.Backends.to_string backend)
              id.Pmc_apps.Chaos.detail
          end)
        [
          Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm;
          Pmc.Backends.Farmem;
        ])
    smoke_apps;
  !failures

(* Replay the committed benchmark baseline's cases on a disarmed-chaos
   machine and require every architectural metric to match exactly —
   the strongest form of "no perf cost when off". *)
let zerocost_baseline ~path ~seed ~quiet =
  let report =
    try Pmc_bench.Report.load path
    with Sys_error msg | Failure msg ->
      Fmt.epr "cannot load %s: %s@." path msg;
      exit 2
  in
  let failures = ref 0 in
  (* model-plane (check) cases carry work counts, not simulator metrics;
     there is no machine to disarm, so they are outside this gate *)
  let sim_samples =
    List.filter
      (fun (s : Pmc_bench.Measure.sample) ->
        s.Pmc_bench.Measure.case.Pmc_bench.Spec.work = Pmc_bench.Spec.Sim)
      report.Pmc_bench.Report.samples
  in
  List.iter
    (fun (s : Pmc_bench.Measure.sample) ->
      let case = s.Pmc_bench.Measure.case in
      let app = parse_app case.Pmc_bench.Spec.app in
      let cfg =
        Config.no_faults
          (Config.chaos ~seed
             { Config.default with cores = case.Pmc_bench.Spec.cores;
               topology = case.Pmc_bench.Spec.topology })
      in
      let cfg =
        if report.Pmc_bench.Report.unbatched then
          { cfg with Config.batched = false }
        else cfg
      in
      let r =
        Pmc_apps.Runner.run ~cfg app ~backend:case.Pmc_bench.Spec.backend
          ~scale:case.Pmc_bench.Spec.scale
      in
      let base = s.Pmc_bench.Measure.metrics in
      let cur = Pmc_bench.Measure.metrics_of_result r in
      let mismatches =
        List.filter_map
          (fun name ->
            let b = Pmc_bench.Measure.metric base name
            and c = Pmc_bench.Measure.metric cur name in
            if b = c then None
            else Some (Printf.sprintf "%s %.0f->%.0f" name b c))
          Pmc_bench.Measure.metric_names
      in
      let id = Pmc_bench.Spec.case_id case in
      if mismatches = [] then begin
        if not quiet then Fmt.pr "identical  %s@." id
      end
      else begin
        incr failures;
        Fmt.epr "DIFFERS    %s: %s@." id (String.concat ", " mismatches)
      end)
    sim_samples;
  !failures

let zerocost_cmd baseline seed quiet =
  let failures = ref 0 in
  failures := zerocost_identity ~seed ~quiet;
  (match baseline with
  | None -> ()
  | Some path -> failures := !failures + zerocost_baseline ~path ~seed ~quiet);
  if !failures > 0 then begin
    Fmt.epr
      "zerocost: %d case(s) differ — the disarmed fault plane is not free@."
      !failures;
    exit 3
  end;
  Fmt.pr "zerocost: disarmed chaos machines are bit-identical to baseline@."

(* ---------------- cmdliner plumbing ---------------- *)

let backend_t =
  Arg.(
    value & opt string "dsm"
    & info [ "backend"; "b" ] ~doc:"seqcst, nocc, swcc, dsm, spm or farmem.")

let crash_backend_t =
  Arg.(
    value & opt string "farmem"
    & info [ "backend"; "b" ]
        ~doc:"Back-end to crash (only farmem has a durable tier).")

let cores_t =
  Arg.(value & opt int 8 & info [ "cores"; "c" ] ~doc:"Number of tiles.")

let topology_t =
  Arg.(
    value & opt string "star"
    & info [ "topology" ] ~docv:"FABRIC"
        ~doc:
          "Fabric the tiles are wired in: star, mesh[:XxY], torus[:XxY] \
           or hier[:CxS].  Bare mesh/torus/hier pick a near-square \
           factorization of the core count; on routed fabrics chaos \
           draws one fault outcome per physical link of each route.")

let scale_t =
  Arg.(value & opt int 16 & info [ "scale"; "s" ] ~doc:"Workload scale.")

let seeds_t =
  Arg.(
    value & opt int 10
    & info [ "seeds" ] ~docv:"N" ~doc:"Fault schedules per app (the wall).")

let seed_base_t =
  Arg.(
    value & opt int 1
    & info [ "seed-base" ] ~docv:"S" ~doc:"First fault seed of the wall.")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault schedule seed.")

let intensity_t =
  Arg.(
    value & opt float 1.0
    & info [ "intensity" ] ~docv:"X"
        ~doc:"Fault probability multiplier (1.0 = the standard mix).")

let smoke_t =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"CI geometry: three kernels, 4 cores, capped scale.")

let no_model_check_t =
  Arg.(
    value & flag
    & info [ "no-model-check" ]
        ~doc:"Skip the PMC model replay of completed runs.")

let jobs_t = Pmc_par.Cli.term ~action:"Run the wall of seeds" ()

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the summary.")

let replay_budget_t =
  Arg.(
    value & opt (some int) None
    & info [ "replay-budget" ] ~docv:"N"
        ~doc:
          "Skip the model replay for traces above N captured events \
           (default 10000).")

let crash_seeds_t =
  Arg.(
    value & opt string "8"
    & info [ "seeds" ] ~docv:"N|A..B"
        ~doc:
          "Power-cut seeds per app: a count N (from seed-base) or an \
           inclusive range A..B.")

let window_t =
  Arg.(
    value & opt (some int) None
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:
          "Cut window in cycles.  Default: each app's fault-free wall \
           clock, so the cut lands inside the run.")

let no_log_t =
  Arg.(
    value & flag
    & info [ "no-log" ]
        ~doc:
          "Disarm the redo log: exit_x publishes word by word, which a \
           mid-publication cut can tear — the negative control the \
           checker must catch.")

let app_opt_t =
  Arg.(
    value & opt (some string) None
    & info [ "app"; "a" ] ~doc:"Run a single application.")

let app_t =
  Arg.(value & opt string "stencil" & info [ "app"; "a" ] ~doc:"Application.")

let baseline_t =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Also replay this benchmark report's cases on a disarmed-chaos \
           machine and require exact metric equality.")

let soak_c =
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run apps under a wall of seeded fault schedules"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"every run completed or failed typed.";
           Cmd.Exit.info 2 ~doc:"input error: unknown app or backend.";
           Cmd.Exit.info 3 ~doc:"property failure: a silent wrong result.";
           Cmd.Exit.info 4
             ~doc:"a model replay found a trace PMC-inconsistent.";
         ])
    Term.(
      const soak_cmd $ app_opt_t $ backend_t $ topology_t $ cores_t $ scale_t
      $ seeds_t $ seed_base_t $ intensity_t $ smoke_t $ no_model_check_t
      $ replay_budget_t $ jobs_t $ quiet_t)

let run_c =
  Cmd.v
    (Cmd.info "run" ~doc:"One seeded chaos run with a full report"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"the run completed or failed typed.";
           Cmd.Exit.info 2 ~doc:"input error: unknown app or backend.";
           Cmd.Exit.info 3 ~doc:"property failure: a silent wrong result.";
           Cmd.Exit.info 4
             ~doc:"the model replay found the trace PMC-inconsistent.";
         ])
    Term.(
      const run_cmd $ app_t $ backend_t $ topology_t $ cores_t $ scale_t
      $ seed_t $ intensity_t $ no_model_check_t $ replay_budget_t)

let crash_c =
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Power-cut crash-recovery experiments on the far-memory tier"
       ~exits:
         [
           Cmd.Exit.info 0
             ~doc:"every experiment recovered clean (or completed).";
           Cmd.Exit.info 2
             ~doc:"input error, or an experiment itself failed.";
           Cmd.Exit.info 3
             ~doc:"property failure: a recovered object was torn.";
           Cmd.Exit.info 4
             ~doc:"a durable prefix replayed PMC-inconsistent.";
         ])
    Term.(
      const crash_cmd $ app_opt_t $ crash_backend_t $ topology_t $ cores_t
      $ scale_t $ crash_seeds_t $ seed_base_t $ window_t $ no_log_t $ smoke_t
      $ no_model_check_t $ replay_budget_t $ jobs_t $ quiet_t)

let zerocost_c =
  Cmd.v
    (Cmd.info "zerocost"
       ~doc:"Assert the disarmed fault plane costs nothing"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"disarmed runs are bit-identical.";
           Cmd.Exit.info 2 ~doc:"the baseline report could not be read.";
           Cmd.Exit.info 3
             ~doc:"property failure: a disarmed run differed from baseline.";
         ])
    Term.(const zerocost_cmd $ baseline_t $ seed_t $ quiet_t)

let main_c =
  Cmd.group
    (Cmd.info "pmc_chaos" ~version:"%%VERSION%%"
       ~doc:"Fault injection and chaos soak harness for the PMC simulator")
    [ soak_c; run_c; crash_c; zerocost_c ]

let () = exit (Cmd.eval main_c)
