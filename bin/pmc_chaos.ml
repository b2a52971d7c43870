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
module Pmc_bench = Root.Pmc_bench
open Pmc_sim

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

(* The apps a soak or crash sweep covers: [--app], else the smoke
   kernels or every registered app. *)
let apps_of app smoke =
  match app with
  | Some a -> [ a ]
  | None -> if smoke then Cli.smoke_apps else Pmc_apps.Registry.all

let soak_cmd app smoke chaos seeds seed_base jobs quiet =
  let seeds = List.init seeds (fun i -> seed_base + i) in
  (* the wall of seeds as one job batch: apps outer, seeds inner — the
     same run order (and therefore the same bytes) as always *)
  let wall =
    List.concat_map
      (fun app -> List.map (fun seed -> chaos ~app ~seed) seeds)
      (apps_of app smoke)
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

let run_cmd job =
  let r = Pmc_jobs.Run.run job in
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

(* Torn objects are property failures (3); an inconsistent durable
   prefix is a formal model violation (4); experiment errors are input/
   runtime errors (2). *)
let crash_exit_code (s : Pmc_apps.Crash.sweep) =
  if s.Pmc_apps.Crash.inconsistent > 0 then 4
  else if s.Pmc_apps.Crash.torn > 0 then 3
  else 2

let crash_cmd app smoke crash seeds seed_base window jobs quiet =
  let seeds = parse_seed_list ~seed_base seeds in
  (* the cut window is learned once per app from its fault-free twin
     (mirroring Crash.sweep), then travels inside each job — the cut
     cycle is fixed by the job encoding alone, at any --jobs width *)
  let wall =
    List.concat_map
      (fun app -> List.map (crash ~app ~window) seeds)
      (apps_of app smoke)
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
    (fun (app : Pmc_apps.Runner.app) ->
      let name = app.Pmc_apps.Runner.name in
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
    Cli.smoke_apps;
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
      let app =
        match Pmc_apps.Registry.find case.Pmc_bench.Spec.app with
        | Some app -> app
        | None ->
            Fmt.epr "%s: unknown app %S@." path case.Pmc_bench.Spec.app;
            exit 2
      in
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

let seeds_t =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 10
    & info [ "seeds" ] ~docv:"N" ~doc:"Fault schedules per app (the wall).")

let seed_base_t =
  Arg.(
    value & opt int 1
    & info [ "seed-base" ] ~docv:"S" ~doc:"First fault seed of the wall.")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the summary.")

let crash_seeds_t =
  Arg.(
    value & opt string "8"
    & info [ "seeds" ] ~docv:"N|A..B"
        ~doc:
          "Power-cut seeds per app: a count N (from seed-base) or an \
           inclusive range A..B.")

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
         (Cli.exits ~ok:"every run completed or failed typed."
            [
              Cmd.Exit.info 3 ~doc:"property failure: a silent wrong result.";
              Cmd.Exit.info 4
                ~doc:"a model replay found a trace PMC-inconsistent.";
            ]))
    Term.(
      const soak_cmd $ Cli.app_opt $ Cli.smoke $ Cli.chaos ~smoke:Cli.smoke ()
      $ seeds_t $ seed_base_t $ Cli.jobs $ quiet_t)

let run_c =
  Cmd.v
    (Cmd.info "run" ~doc:"One seeded chaos run with a full report"
       ~exits:
         (Cli.exits ~ok:"the run completed or failed typed."
            [
              Cmd.Exit.info 3 ~doc:"property failure: a silent wrong result.";
              Cmd.Exit.info 4
                ~doc:"the model replay found the trace PMC-inconsistent.";
            ]))
    Term.(const run_cmd $ Cli.chaos_job)

let crash_c =
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Power-cut crash-recovery experiments on the far-memory tier"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Only $(b,farmem) has a durable tier.  Without $(b,--window) \
              each app's cut window is its fault-free wall clock, so the \
              cut lands inside the run.";
         ]
       ~exits:
         (Cli.exits ~ok:"every experiment recovered clean (or completed)."
            ~input:", or an experiment itself failed"
            [
              Cmd.Exit.info 3
                ~doc:"property failure: a recovered object was torn.";
              Cmd.Exit.info 4
                ~doc:"a durable prefix replayed PMC-inconsistent.";
            ]))
    Term.(
      const crash_cmd $ Cli.app_opt $ Cli.smoke $ Cli.crash ~smoke:Cli.smoke ()
      $ crash_seeds_t $ seed_base_t $ Arg.value Cli.window $ Cli.jobs
      $ quiet_t)

let zerocost_c =
  Cmd.v
    (Cmd.info "zerocost"
       ~doc:"Assert the disarmed fault plane costs nothing"
       ~exits:
         (Cli.exits ~ok:"disarmed runs are bit-identical."
            ~input:", or a baseline report that could not be read"
            [
              Cmd.Exit.info 3
                ~doc:
                  "property failure: a disarmed run differed from baseline.";
            ]))
    Term.(const zerocost_cmd $ baseline_t $ Cli.seed $ quiet_t)

let main_c =
  Cmd.group
    (Cmd.info "pmc_chaos" ~version:"%%VERSION%%"
       ~doc:"Fault injection and chaos soak harness for the PMC simulator"
       ~exits:
         (Cli.exits
            [
              Cmd.Exit.info 3 ~doc:"property failure.";
              Cmd.Exit.info 4 ~doc:"formal PMC-model inconsistency.";
            ]))
    [ soak_c; run_c; crash_c; zerocost_c ]

let () = Cli.eval main_c
