(* pmc_check — the annotation tooling as a command-line front-end: parse
   annotated-program files, run the static discipline checker and the
   Table II lowering pass.  Several files can be checked in one batch,
   and the per-program checks fan out over a domain pool.

     pmc_check                            # check + lower the built-in examples
     pmc_check --file prog.pmc            # check + lower a program file
     pmc_check -f a.pmc -f b.pmc -j 4     # batch, checked on 4 domains
     pmc_check --table                    # the lowering table per object size

   Checking goes through the shared Pmc_jobs layer — the same code path
   the pmc_serve daemon runs.  Exit codes follow the documented
   convention: 0 all programs pass; 2 input error (unreadable file or
   parse failure); 3 property failure (discipline errors); 4 reserved
   for formal PMC-model inconsistency. *)

open Cmdliner

let builtin = [ Pmc_compile.Ir.fig6; Pmc_compile.Ir.fig6_missing_fence ]

(* Check a batch of jobs on the pool and print reports sequentially in
   input order — workers never touch the formatter, so the output is
   byte-identical at any --jobs. *)
let check_jobs pool jobs =
  let results = Pmc_jobs.Run.run_all ~pool jobs in
  List.iter
    (fun r ->
      match r with
      | Pmc_jobs.Result.Error e -> Fmt.epr "%s@." e.Pmc_jobs.Result.detail
      | r -> Fmt.pr "%a" Pmc_jobs.Result.pp r)
    results;
  Pmc_jobs.Result.exit_code_all results

let builtin_jobs () =
  List.map
    (fun (p : Pmc_compile.Ir.program) ->
      Pmc_jobs.Job.Check
        {
          Pmc_jobs.Job.name = p.Pmc_compile.Ir.pname;
          source = Pmc_compile.Parse.print p;
        })
    builtin

let file_jobs paths =
  List.map
    (fun path ->
      match In_channel.with_open_text path In_channel.input_all with
      | source -> Ok (Pmc_jobs.Job.Check { Pmc_jobs.Job.name = path; source })
      | exception Sys_error msg -> Error (path, msg))
    paths

let table sizes =
  List.iter
    (fun bytes ->
      Pmc_compile.Report.pp_lowering_table Fmt.stdout Pmc_sim.Config.default
        ~bytes;
      Fmt.pr "@.")
    sizes

let main show_table files jobs =
  if show_table then begin table [ 1; 4; 64; 1024 ]; 0 end
  else
    Pmc_par.Pool.with_pool ~jobs (fun pool ->
        match files with
        | [] ->
            (* the built-in examples are a demonstration: fig6_missing_fence
               is *meant* to fail its check, so the exit code stays 0 *)
            ignore (check_jobs pool (builtin_jobs ()));
            0
        | paths -> (
            match file_jobs paths with
            | jobs_or_errors ->
                List.iter
                  (function
                    | Error (path, msg) ->
                        Fmt.epr "cannot read %s: %s@." path msg
                    | Ok _ -> ())
                  jobs_or_errors;
                let jobs =
                  List.filter_map Stdlib.Result.to_option jobs_or_errors
                in
                let code = if jobs = [] then 0 else check_jobs pool jobs in
                if List.exists Stdlib.Result.is_error jobs_or_errors then 2
                else code))

let cmd =
  Cmd.v
    (Cmd.info "pmc_check" ~doc:"Static PMC annotation checking & lowering"
       ~exits:
         (Cli.exits ~ok:"every checked program passed."
            ~input:", an unreadable file or a parse failure"
            [
              Cmd.Exit.info 3
                ~doc:"property failure: a program has discipline errors.";
              Cmd.Exit.info 4
                ~doc:"formal PMC-model inconsistency (reserved; unused here).";
            ]))
    Term.(
      const Stdlib.exit
      $ (const main
      $ Arg.(value & flag & info [ "table" ] ~doc:"Print lowering tables.")
      $ Arg.(
          value
          & opt_all string []
          & info [ "file"; "f" ] ~docv:"FILE"
              ~doc:
                "Check an annotated program file.  Repeatable; the batch \
                 is checked in parallel under --jobs and reported in \
                 argument order.")
      $ Cli.jobs))

let () = Cli.eval cmd
