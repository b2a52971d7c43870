(* The reference crash experiment: the checker's executable
   specification that the one-pass [Crash.judge_cuts] is pinned against.

   It runs the app from cycle 0 under the crash config, with the
   machine's own seed-derived cut closure armed, until [Engine.Power_cut]
   kills it (or the run completes, if the cut lands past the last task).
   It then copies the crashed device's whole durable image
   ([Farmem.image]) and restores it into a fresh device before judging —
   one full run and two full-device copies per cut, which is why the
   library judges every cut of an app from one marker-stamped run
   instead.  The judging itself is [Crash.judge], shared, so what this
   oracle pins is the marker run, the sparse snapshot and the trace
   prefix. *)

open Pmc_sim
open Pmc_apps

let crash_one ?(log = true) ~window ?capacity ?replay_budget ?model_check
    ?(topology = Topology.Star) (a : Runner.app) ~backend ~cores ~scale ~seed
    : Crash.report =
  let base_cfg = { Config.default with cores; topology; farmem_log = log } in
  let cfg = Config.crash ~seed ~window base_cfg in
  let recorder = ref None in
  let machine = ref None in
  let on_api api =
    machine := Some (Pmc.Api.machine api);
    recorder := Some (Pmc_trace.Recorder.attach ?capacity api)
  in
  let run_outcome =
    match Runner.run ~cfg ~on_api a ~backend ~scale with
    | _ -> Ok None
    | exception Engine.Power_cut cycle -> Ok (Some cycle)
    | exception Pmc_error.Error c ->
        Error (Printf.sprintf "typed error: %s" (Pmc_error.to_string c))
    | exception Engine.Watchdog n ->
        Error (Printf.sprintf "watchdog: no progress by cycle %d" n)
    | exception Engine.Deadlock msg -> Error ("deadlock: " ^ msg)
  in
  let m = Option.get !machine and rec_ = Option.get !recorder in
  let base =
    {
      Crash.app = a.Runner.name; backend; cores; scale; seed; window;
      cut = None; log; verdict = Crash.Completed;
      wall = Engine.wall_time (Machine.engine m); objects = [];
      recovery = None; events = Pmc_trace.Recorder.recorded rec_;
      dropped = Pmc_trace.Recorder.dropped_total rec_; replayed = false;
    }
  in
  match run_outcome with
  | Error msg -> { base with Crash.verdict = Crash.Check_error msg }
  | Ok cut ->
      let durable =
        Option.map
          (fun crashed () ->
            let fresh =
              Farmem.create ~data_bytes:cfg.Config.farmem_bytes
                ~word_occupancy:cfg.Config.farmem_word_occupancy ~slots:cores
            in
            Farmem.restore fresh (Farmem.image crashed);
            (fresh, Farmem.allocs crashed))
          (Machine.farmem_opt m)
      in
      Crash.judge ?replay_budget ?model_check { base with Crash.cut }
        ~trace:(Pmc_trace.Recorder.events rec_) ~durable
