(* pmc_trace — the tracing subsystem's own CLI.  Tracing, race-checking
   and model-replaying any app run is pmc_demo's job (--trace,
   --race-check, --model-check); this CLI keeps the two views pmc_demo
   has no place for:

     pmc_trace race-demo
         the seeded-race demonstration: the Fig. 6 flag/data program with
         its annotations stripped, caught by the dynamic detector with
         the two conflicting accesses and their cores — then the
         annotated version of the same program, which is clean;
     pmc_trace dump --app stencil --backend dsm
         print the raw merged event timeline (debugging aid). *)

open Cmdliner
module Pmc_trace = Root.Pmc_trace
open Pmc_sim

(* ---------------- race-demo ---------------- *)

(* The Fig. 6 flag/data pattern with its annotations stripped (the
   [~check:false] runtime permits it, exactly like writing the program
   without PMC): publisher writes payload then flag, consumer polls the
   flag and reads the payload.  No entry/exit means no ≺S edges, so every
   payload and flag access is a data race — and the detector names the
   two conflicting accesses.  The annotated version is race-free. *)
let race_demo () =
  let go ~annotated =
    let m = Machine.create { Config.small with cores = 2 } in
    let api =
      Pmc.Api.create ~check:annotated
        (Pmc.Backends.make_backend Pmc.Backends.Nocc m)
    in
    let rec_ = Pmc_trace.Recorder.attach api in
    let data = Pmc.Api.alloc_words api ~name:"X" ~words:2 in
    let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
    if annotated then begin
      Machine.spawn m ~core:0 (fun () ->
          Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
      Machine.spawn m ~core:1 (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag))
    end
    else begin
      Machine.spawn m ~core:0 (fun () ->
          (* unannotated: raw writes, no entry/exit, no fence *)
          Pmc.Api.set api data 0 42l;
          Pmc.Api.set api data 1 7l;
          Pmc.Api.set api flag 0 1l);
      Machine.spawn m ~core:1 (fun () ->
          while Pmc.Api.get api flag 0 <> 1l do
            Engine.idle (Machine.engine m) 16
          done;
          ignore (Pmc.Api.get api data 0);
          ignore (Pmc.Api.get api data 1))
    end;
    Machine.run m;
    let events = Pmc_trace.Recorder.events rec_ in
    Pmc_trace.Racecheck.check ~cores:2 events
  in
  Fmt.pr "== Fig. 6 message passing, annotations stripped ==@.";
  (match go ~annotated:false with
  | [] ->
      Fmt.pr "no races detected — UNEXPECTED@.";
      exit 1
  | races ->
      Fmt.pr "%d distinct data race(s) detected:@." (List.length races);
      List.iter (fun r -> Fmt.pr "  %a@." Pmc_trace.Racecheck.pp_race r) races);
  Fmt.pr "@.== the same program, properly annotated ==@.";
  (match go ~annotated:true with
  | [] -> Fmt.pr "no data races — the annotations carry every ordering@."
  | races ->
      Fmt.pr "%d race(s) — UNEXPECTED@." (List.length races);
      exit 1)

(* ---------------- dump ---------------- *)

let dump_cmd app backend cores scale capacity limit =
  let recorder = ref None in
  ignore
    (Pmc_apps.Runner.run ~cfg:{ Config.default with cores }
       ~on_api:(fun api ->
         recorder := Some (Pmc_trace.Recorder.attach ?capacity api))
       app ~backend ~scale);
  let events = Pmc_trace.Recorder.events (Option.get !recorder) in
  let n = List.length events in
  List.iteri
    (fun i e -> if i < limit then Fmt.pr "%a@." Pmc_trace.Event.pp e)
    events;
  if n > limit then Fmt.pr "... (%d more events)@." (n - limit)

(* ---------------- cmdliner plumbing ---------------- *)

let limit_t =
  Arg.(value & opt int 200 & info [ "limit"; "n" ] ~doc:"Max events to print.")

let exits = Cli.exits [ Cmd.Exit.info 1 ~doc:"the race demo misbehaved." ]

let race_demo_c =
  Cmd.v
    (Cmd.info "race-demo" ~exits
       ~doc:"Seeded data race caught by the dynamic detector")
    Term.(const race_demo $ const ())

let dump_c =
  Cmd.v
    (Cmd.info "dump" ~exits ~doc:"Print the merged event timeline")
    Term.(
      const dump_cmd $ Cli.app ~default:"raytrace"
      $ Cli.backend ~default:"swcc" $ Cli.cores ~default:8
      $ Cli.scale ~default:32 $ Cli.trace_capacity $ limit_t)

let cmd =
  Cmd.group
    (Cmd.info "pmc_trace" ~exits
       ~doc:"The seeded-race demonstration and the raw trace timeline")
    [ race_demo_c; dump_c ]

let () = Cli.eval cmd
