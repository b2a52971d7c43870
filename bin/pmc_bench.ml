(* pmc_bench — benchmark regression harness for the PMC simulator.

   `run` measures a suite of (app × back-end × cores × scale) cases with
   warmup, repeats and outlier trimming, and writes a schema-versioned
   JSON report; `compare` diffs two reports against per-metric
   tolerances and exits non-zero on regression — the CI gate against the
   committed BENCH_BASELINE.json; `paper` prints the paper's figures and
   checks their shape claims ({!Pmc_bench.Paper}).

     pmc_bench run --suite smoke --label pr -o BENCH_pr.json
     pmc_bench run --suite smoke --unbatched -o BENCH_unbatched.json
     pmc_bench compare BENCH_BASELINE.json BENCH_pr.json
     pmc_bench compare base.json pr.json --tolerance cycles=0.05
     pmc_bench paper fig8 fig10 *)

open Cmdliner
module Pmc_bench = Root.Pmc_bench

let load_report path =
  try Ok (Pmc_bench.Report.load path) with
  | Sys_error msg -> Error msg
  | Failure msg -> Error (path ^ ": " ^ msg)
  | Pmc_bench.Json.Parse_error msg -> Error (path ^ ": " ^ msg)

(* ---------------- run ---------------- *)

(* The suite with the --app / --cores / --topology overrides applied to
   every case; topology names resolve against the (possibly overridden)
   core count of each case. *)
let spec suite_name label unbatched warmup repeat apps topology cores =
  let ( let* ) = Result.bind in
  let* spec =
    Option.to_result
      ~none:
        (Printf.sprintf "option '--suite': unknown suite %S (known: %s)"
           suite_name
           (String.concat ", " Pmc_bench.Spec.suite_names))
      (Pmc_bench.Spec.suite ~label ~unbatched ~warmup ~repeat suite_name)
  in
  let override (c : Pmc_bench.Spec.case) =
    let cores = Option.value cores ~default:c.Pmc_bench.Spec.cores in
    match topology with
    | None -> Ok { c with Pmc_bench.Spec.cores }
    | Some name ->
        Result.map
          (fun topology -> { c with Pmc_bench.Spec.cores; topology })
          (Cli.check_topology name ~cores)
  in
  let keep (c : Pmc_bench.Spec.case) =
    apps = []
    || List.exists
         (fun (a : Pmc_apps.Runner.app) ->
           a.Pmc_apps.Runner.name = c.Pmc_bench.Spec.app)
         apps
  in
  let* cases =
    List.fold_right
      (fun c acc ->
        let* acc = acc in
        let* c = override c in
        Ok (c :: acc))
      (List.filter keep spec.Pmc_bench.Spec.cases)
      (Ok [])
  in
  if cases = [] then Error "option '--app': matched no case of the suite"
  else Ok { spec with Pmc_bench.Spec.cases }

let run_cmd spec out jobs quiet =
  let report =
    Pmc_par.Pool.with_pool ~jobs (fun pool -> Pmc_bench.Report.run ~pool spec)
  in
  if not quiet then Fmt.pr "%a" Pmc_bench.Report.pp report;
  (match out with
  | None -> ()
  | Some path -> (
      try
        Pmc_bench.Report.save path report;
        if not quiet then Fmt.pr "wrote %s@." path
      with Sys_error msg ->
        Fmt.epr "cannot write %s: %s@." path msg;
        exit 2));
  let bad =
    List.exists
      (fun (s : Pmc_bench.Measure.sample) ->
        (not s.Pmc_bench.Measure.ok) || not s.Pmc_bench.Measure.deterministic)
      report.Pmc_bench.Report.samples
  in
  if bad then begin
    Fmt.epr "run: checksum or determinism failure (see report)@.";
    exit 3
  end

let suite_t =
  Arg.(
    value & opt string "smoke"
    & info [ "suite" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Benchmark suite, one of %s.  $(b,smoke) is the CI gate, \
              $(b,scale) runs the served-traffic apps on 256- and \
              1024-tile routed fabrics, $(b,check) measures the model \
              plane, and $(b,ci) (smoke plus check) is the \
              committed-baseline set."
             (String.concat ", "
                (List.map (Printf.sprintf "$(b,%s)")
                   Pmc_bench.Spec.suite_names))))

let label_t =
  Arg.(
    value & opt string "bench"
    & info [ "label" ] ~docv:"LABEL"
        ~doc:"Free-form tag recorded in the report header.")

let out_t =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON report to $(docv).")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only write the report.")

let run_term =
  let spec =
    Term.term_result' ~usage:true
      Term.(
        const spec $ suite_t $ label_t $ Cli.unbatched $ Cli.warmup ~default:1
        $ Cli.repeat ~default:3 $ Cli.apps $ Cli.topology_opt $ Cli.cores_opt)
  in
  Term.(const run_cmd $ spec $ out_t $ Cli.jobs $ quiet_t)

let run_info =
  Cmd.info "run" ~doc:"Measure a benchmark suite and emit a JSON report"
    ~exits:
      (Cli.exits ~input:", an unknown suite, or an unwritable report file"
         [
           Cmd.Exit.info 3
             ~doc:"a checksum mismatched or a case was nondeterministic.";
         ])

(* ---------------- compare ---------------- *)

let compare_cmd base_path cur_path tolerance_spec no_rate_gate subset =
  let tolerances =
    match tolerance_spec with
    | None -> Pmc_bench.Compare.default_tolerances
    | Some spec -> (
        try Pmc_bench.Compare.parse_tolerance_overrides spec
        with Invalid_argument msg ->
          Fmt.epr "bad --tolerance: %s@." msg;
          exit 2)
  in
  match (load_report base_path, load_report cur_path) with
  | Error msg, _ | _, Error msg ->
      Fmt.epr "%s@." msg;
      exit 2
  | Ok base, Ok cur ->
      let outcome =
        Pmc_bench.Compare.run ~tolerances ~gate_rate:(not no_rate_gate)
          ~subset ~base ~cur ()
      in
      Fmt.pr "%a" Pmc_bench.Compare.pp outcome;
      if not (Pmc_bench.Compare.ok outcome) then exit 1

let base_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASELINE" ~doc:"Baseline report (e.g. the committed \
                                     BENCH_BASELINE.json).")

let cur_t =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"Report to gate.")

let tolerance_t =
  Arg.(
    value & opt (some string) None
    & info [ "tolerance" ] ~docv:"SPEC"
        ~doc:
          "Override per-metric tolerances as fractional changes, e.g. \
           $(b,cycles=0.05,noc_flits=0.1).  Unnamed metrics keep their \
           defaults (cycles/noc_flits/flushes 2%, lock_transfers 10%).")

let no_rate_gate_t =
  Arg.(
    value & flag
    & info [ "no-rate-gate" ]
        ~doc:
          "Disable the host-speed rate gate (architectural metrics are \
           still gated).  For comparing two arms of the same run — the \
           $(b,--jobs) equality gates — where both arms shared the host \
           and their relative speed carries no signal.")

let subset_t =
  Arg.(
    value & flag
    & info [ "subset" ]
        ~doc:
          "Accept a current report that ran only a sub-suite of the \
           baseline: baseline cases absent from it are not counted \
           missing.  Lets the combined $(b,ci) baseline gate the \
           $(b,smoke) and $(b,check) suites separately.")

let compare_term =
  Term.(
    const compare_cmd $ base_t $ cur_t $ tolerance_t $ no_rate_gate_t
    $ subset_t)

let compare_info =
  Cmd.info "compare"
    ~doc:"Diff two reports against per-metric tolerances (the CI gate)"
    ~exits:
      (Cli.exits ~input:", or a report that could not be read or parsed"
         [
           Cmd.Exit.info 1
             ~doc:
               "regression: a gated metric exceeded its tolerance, a case \
                disappeared, or a current sample is broken.";
         ])

(* ---------------- paper ---------------- *)

(* The named sections run once each, in print order; none names all. *)
let paper_cmd names =
  let module P = Pmc_bench.Paper in
  let chosen s = names = [] || List.mem (P.section_name s) names in
  exit (P.run Fmt.stdout (List.filter chosen P.sections))

let sections_t =
  let names = Pmc_bench.Paper.section_names in
  let find s = List.find_opt (String.equal s) names in
  Arg.(
    value
    & pos_all (Cli.named "section" ~find ~name:Fun.id names) []
    & info [] ~docv:"SECTION"
        ~doc:("A figure to run: " ^ String.concat ", " names ^ ".  Every \
               figure runs when none is named."))

let paper_info =
  Cmd.info "paper"
    ~doc:"Regenerate the paper's figures and check their shape claims"
    ~exits:
      (Cli.exits ~input:", or an unknown section"
         [ Cmd.Exit.info 3 ~doc:"a shape claim failed." ])

(* ---------------- group ---------------- *)

let cmd =
  Cmd.group
    (Cmd.info "pmc_bench"
       ~doc:"Benchmark regression harness for the PMC simulator"
       ~exits:
         (Cli.exits
            [
              Cmd.Exit.info 1 ~doc:"$(b,compare) found a regression.";
              Cmd.Exit.info 3
                ~doc:
                  "$(b,run) saw a checksum or determinism failure, or a \
                   $(b,paper) shape claim failed.";
            ])
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs registered PMC applications across memory-architecture \
              back-ends on the simulated SoC, records architectural \
              metrics (cycles, NoC flits, cache maintenance, lock \
              handovers) in schema-versioned JSON reports, and diffs \
              reports against per-metric tolerances so CI can reject \
              performance regressions.";
         ])
    [
      Cmd.v run_info run_term;
      Cmd.v compare_info compare_term;
      Cmd.v paper_info Term.(const paper_cmd $ sections_t);
    ]

let () = Cli.eval cmd
