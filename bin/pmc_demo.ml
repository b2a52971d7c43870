(* pmc_demo — run any annotated application on any memory-architecture
   back-end of the simulated many-core SoC and report the Fig. 8-style
   statistics.  With the pmc_trace flags the run additionally becomes an
   analyzable artifact: a Perfetto-loadable trace (--trace), a dynamic
   race check (--race-check), and a replay of the observed values through
   the formal PMC model (--model-check).

     pmc_demo --app raytrace --backend swcc --cores 32 --scale 256
     pmc_demo --app raytrace --backend swcc --trace out.json --race-check
     pmc_demo --list *)

open Cmdliner
module Pmc_trace = Root.Pmc_trace
open Pmc_sim

let run_app (app : Pmc_apps.Runner.app) backend topology cores scale breakdown
    verify trace_file race_check model_check capacity =
  let cfg = { Config.default with cores; topology } in
  let tracing = trace_file <> None || race_check || model_check in
  let recorder = ref None in
  let on_api =
    if tracing then
      Some
        (fun api ->
          recorder := Some (Pmc_trace.Recorder.attach ?capacity api))
    else None
  in
  let r = Pmc_apps.Runner.run ~cfg ?on_api app ~backend ~scale in
  Fmt.pr "%a" Pmc_apps.Runner.pp_result r;
  if breakdown then begin
    let s = r.Pmc_apps.Runner.summary in
    Fmt.pr "%a" Stats.pp_summary s;
    Fmt.pr "  dcache: %d hits / %d misses; icache misses: %d@."
      s.Stats.dcache_hits s.Stats.dcache_misses s.Stats.icache_misses;
    Fmt.pr "  locks: %d acquires, %d transfers; noc writes: %d; \
            flushes: %d@."
      s.Stats.lock_acquires s.Stats.lock_transfers s.Stats.noc_writes
      s.Stats.flushes
  end;
  let rc = ref 0 in
  (match !recorder with
  | None -> ()
  | Some rec_ ->
      let events = Pmc_trace.Recorder.events rec_ in
      let dropped = Pmc_trace.Recorder.dropped_total rec_ in
      Fmt.pr "trace: %d events recorded%s@." (List.length events)
        (if dropped = 0 then ""
         else Printf.sprintf ", %d dropped (raise --trace-capacity)"
                dropped);
      (match trace_file with
      | None -> ()
      | Some path ->
          let stats =
            Machine.stats (Pmc.Api.machine (Pmc_trace.Recorder.api rec_))
          in
          (try
             Pmc_trace.Export.write_file ~stats ~path events;
             Fmt.pr "trace: wrote %s (open in ui.perfetto.dev)@." path
           with Sys_error msg ->
             Fmt.epr "trace: cannot write %s: %s@." path msg;
             rc := 2));
      if race_check then begin
        let races = Pmc_trace.Racecheck.check ~cores events in
        match races with
        | [] -> Fmt.pr "race check: no data races detected@."
        | races ->
            Fmt.pr "race check: %d distinct data race(s):@."
              (List.length races);
            List.iter
              (fun r ->
                Fmt.pr "  %a@." Pmc_trace.Racecheck.pp_race r)
              races;
            rc := 3
      end;
      if model_check then begin
        if dropped > 0 then
          Fmt.epr
            "model check: trace incomplete (%d events dropped) — \
             verdict unreliable@."
            dropped;
        let report = Pmc_trace.Replay.check ~cores events in
        if Pmc_model.History.ok report then
          Fmt.pr "model check: run is PMC-consistent \
                  (History.check ok)@."
        else begin
          Fmt.pr "model check: %d violation(s):@."
            (List.length report.Pmc_model.History.violations);
          List.iter
            (fun v ->
              Fmt.pr "  %a@." Pmc_model.History.pp_violation v)
            report.Pmc_model.History.violations;
          rc := 4
        end
      end);
  if verify && not (Pmc_apps.Runner.ok r) then begin
    Fmt.epr "checksum mismatch!@.";
    exit 3
  end;
  if !rc <> 0 then exit !rc

let list_apps () =
  Fmt.pr "applications:@.";
  List.iter (fun n -> Fmt.pr "  %s@." n) Pmc_apps.Registry.names;
  Fmt.pr "back-ends:@.";
  List.iter
    (fun k -> Fmt.pr "  %s@." (Pmc.Backends.to_string k))
    Pmc.Backends.all

let breakdown_t =
  Arg.(value & flag & info [ "breakdown" ] ~doc:"Print the stall breakdown.")

let verify_t =
  Arg.(
    value & opt bool true
    & info [ "verify" ] ~doc:"Fail if the checksum mismatches.")

let list_t = Arg.(value & flag & info [ "list"; "l" ] ~doc:"List apps.")

let trace_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace"; "t" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON to $(docv) \
           (open in ui.perfetto.dev).")

let main app backend topology cores scale breakdown verify trace race_check
    model_check capacity list =
  if list then list_apps ()
  else
    run_app app backend topology cores scale breakdown verify trace
      race_check model_check capacity

(* The exit-code contract, surfaced in --help so scripts and CI can rely
   on it. *)
let exits =
  Cli.exits ~input:", or an unwritable $(b,--trace) path"
    [
      Cmd.Exit.info 3
        ~doc:
          "the checksum mismatched the sequential reference, or \
           $(b,--race-check) detected a data race.";
      Cmd.Exit.info 4
        ~doc:
          "$(b,--model-check) found the run inconsistent with the formal \
           PMC model.";
    ]

let cmd =
  let cores = Cli.cores ~default:32 in
  Cmd.v
    (Cmd.info "pmc_demo" ~doc:"Run PMC-annotated apps on simulated SoCs"
       ~exits)
    Term.(
      const main $ Cli.app ~default:"raytrace" $ Cli.backend ~default:"swcc"
      $ Cli.topology cores $ cores $ Cli.scale ~default:64 $ breakdown_t
      $ verify_t $ trace_t $ Cli.race_check $ Cli.model_check
      $ Cli.trace_capacity $ list_t)

let () = Cli.eval cmd
