(* The command-line layer shared by the seven binaries: every flag that
   more than one command takes is declared here once, with one
   documentation string and a checked type, so the commands differ only
   in their defaults.  The chaos and crash jobs are one term each, used
   by pmc_chaos and by pmc_serve submit.

   Names are checked by typed converters that call the library's own
   parsers ([Registry.find], [Backends.of_string], [Topology.resolve]
   once the core count is known), and counts by range.  A bad value is
   an input error: {!eval} maps every command-line error to exit 2, the
   code the 0/2/3/4 convention reserves for input errors, with
   cmdliner's one message format ("TOOL: option '--x': ..." and a usage
   line). *)

open Cmdliner
module Job = Pmc_jobs.Job
module Runner = Pmc_apps.Runner
module Backends = Pmc.Backends
module Topology = Pmc_sim.Topology

(* ---------------- evaluation and exit codes ---------------- *)

let exits ?(ok = "on success.") ?(input = "") codes =
  (Cmd.Exit.info 0 ~doc:ok
  :: Cmd.Exit.info 2
       ~doc:
         ("input error: an unknown option or a bad value or name" ^ input
        ^ ".")
  :: codes)
  @ [ Cmd.Exit.info 125 ~doc:"on unexpected internal errors (bugs)." ]

let eval cmd =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)

(* ---------------- checked converters ---------------- *)

let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (Printf.sprintf "%S is not an integer >= %d" s lo)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* A converter over one of the library's name lookups. *)
let named what ~find ~name names =
  let parse s =
    Option.to_result (find s)
      ~none:
        (Printf.sprintf "unknown %s %S; one of: %s" what s
           (String.concat ", " names))
  in
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (name v))

let app_conv =
  named "app" ~find:Pmc_apps.Registry.find
    ~name:(fun (a : Runner.app) -> a.Runner.name)
    Pmc_apps.Registry.names

let backend_conv =
  named "back-end" ~find:Backends.of_string ~name:Backends.to_string
    (List.map Backends.to_string Backends.all)

(* Defaults are written by name; a typo in one is a bug in this file. *)
let parsed conv s = Result.get_ok (Arg.conv_parser conv s)

(* ---------------- app, back-end, fabric, geometry ---------------- *)

let app_info ?absent () =
  Arg.info [ "app"; "a" ] ~docv:"APP" ?absent
    ~doc:
      (Printf.sprintf "Application: one of %s."
         (String.concat ", " Pmc_apps.Registry.names))

let app ~default =
  Arg.(value & opt app_conv (parsed app_conv default) (app_info ()))

let app_opt =
  Arg.(value & opt (some app_conv) None (app_info ~absent:"every app" ()))

let apps =
  Arg.(
    value & opt_all app_conv []
    & app_info ~absent:"every case; repeatable" ())

let backend ~default =
  Arg.(
    value
    & opt backend_conv (parsed backend_conv default)
    & info [ "backend"; "b" ] ~docv:"BACKEND"
        ~doc:"Memory architecture: seqcst, nocc, swcc, dsm, spm or farmem.")

let cores_info ?absent () =
  Arg.info [ "cores"; "c" ] ~docv:"N" ?absent
    ~doc:"Number of tiles ($(docv) >= 1)."

let cores ~default = Arg.(value & opt (int_at_least 1) default (cores_info ()))

let cores_opt =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & cores_info ~absent:"each case's own" ())

let scale ~default =
  Arg.(
    value
    & opt (int_at_least 1) default
    & info [ "scale"; "s" ] ~docv:"N" ~doc:"Workload scale ($(docv) >= 1).")

let topology_info ?absent () =
  Arg.info [ "topology" ] ~docv:"FABRIC" ?absent
    ~doc:
      "Fabric the tiles are wired in: $(b,star) (uniform ring-distance \
       hops), $(b,mesh:XxY), $(b,torus:XxY) or $(b,hier:CxS) (C clusters \
       of S tiles around a hub ring).  Bare $(b,mesh), $(b,torus) and \
       $(b,hier) pick a near-square factorization of the core count."

let topology_opt =
  Arg.(
    value
    & opt (some string) None
    & topology_info ~absent:"each case's own" ())

let check_topology name ~cores =
  Result.map_error
    (fun e -> "option '--topology': " ^ e)
    (Topology.resolve name ~cores)

(* The fabric resolves against the command's final core count, so it is
   checked after [cores] is parsed. *)
let topology cores =
  Term.term_result' ~usage:true
    Term.(
      const (fun name cores -> check_topology name ~cores)
      $ Arg.(value & opt string "star" & topology_info ())
      $ cores)

let seed =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S"
        ~doc:"Seed of the fault or power-cut schedule.")

let jobs =
  Arg.(
    value
    & opt (int_at_least 0) 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains.  1 (the default) is the exact sequential \
           behaviour; 0 uses the recommended domain count.  Output is \
           identical at any width.")

(* ---------------- chaos and crash ---------------- *)

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"CI geometry: three kernels, 4 cores, capped scale.")

(* The smoke matrix: three kernels with distinct traffic shapes. *)
let smoke_apps =
  List.map (parsed app_conv) [ "histogram"; "reduce"; "stencil" ]

let intensity =
  Arg.(
    value & opt float 1.0
    & info [ "intensity" ] ~docv:"X"
        ~doc:"Fault probability multiplier (1.0 = the standard mix).")

let no_model_check =
  Arg.(
    value & flag
    & info [ "no-model-check" ]
        ~doc:"Skip the PMC model replay of the run's trace.")

let replay_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "replay-budget" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Skip the model replay of traces above $(docv) captured events \
              (default %d for a chaos run, %d for a crash prefix)."
             Pmc_apps.Chaos.default_replay_budget
             Pmc_apps.Crash.default_replay_budget))

let window =
  Arg.(
    opt (some (int_at_least 1)) None
    & info [ "window" ] ~docv:"CYCLES"
        ~doc:
          "Power-cut window in cycles; the cut cycle is a pure function of \
           (seed, window).")

let no_log =
  Arg.(
    value & flag
    & info [ "no-log" ]
        ~doc:
          "Disarm the redo log: exit_x publishes word by word, which a \
           mid-publication cut can tear — the negative control the \
           checker must catch.")

(* With [--smoke] the geometry shrinks to 4 cores and scale <= 4, small
   enough that every trace fits the replay budget and the model checker
   runs on every completed seed; the fabric resolves after the shrink. *)
let geometry ?(smoke = Term.const false) () =
  let cores =
    Term.(const (fun smoke c -> if smoke then 4 else c) $ smoke
          $ cores ~default:8)
  and scale =
    Term.(const (fun smoke s -> if smoke then min s 4 else s) $ smoke
          $ scale ~default:16)
  in
  (cores, topology cores, scale)

(* A chaos job for each (app, seed) of the command's machine. *)
let chaos ?smoke () =
  let cores, topology, scale = geometry ?smoke () in
  let make backend cores topology scale intensity no_model_check
      replay_budget ~(app : Runner.app) ~seed =
    Job.Chaos
      {
        Job.c_app = app.Runner.name;
        c_backend = Backends.to_string backend;
        c_topology = Topology.to_string topology;
        c_cores = cores;
        c_scale = scale;
        seed;
        intensity;
        model_check = not no_model_check;
        replay_budget;
      }
  in
  Term.(
    const make $ backend ~default:"dsm" $ cores $ topology $ scale
    $ intensity $ no_model_check $ replay_budget)

(* [Term] has its own [app], so the stencil default is bound first. *)
let stencil = app ~default:"stencil"

let chaos_job =
  Term.(
    const (fun make app seed -> make ~app ~seed) $ chaos () $ stencil $ seed)

(* A crash job for each (app, seed).  Without a [window] the cut window
   is the app's fault-free wall clock, learned once per app, so the cut
   lands inside the run and the job encoding alone fixes the cut. *)
let crash ?smoke () =
  let cores, topology, scale = geometry ?smoke () in
  let make backend cores topology scale no_log no_model_check replay_budget
      ~(app : Runner.app) ~window =
    let log = not no_log in
    let window =
      match window with
      | Some w -> w
      | None ->
          let cfg =
            { Pmc_sim.Config.default with cores; topology; farmem_log = log }
          in
          max 1 (Runner.run ~cfg app ~backend ~scale).Runner.wall
    in
    fun seed ->
      Job.Crash
        {
          Job.x_app = app.Runner.name;
          x_backend = Backends.to_string backend;
          x_topology = Topology.to_string topology;
          x_cores = cores;
          x_scale = scale;
          x_seed = seed;
          x_window = window;
          x_log = log;
          x_model_check = not no_model_check;
          x_replay_budget = replay_budget;
        }
  in
  Term.(
    const make $ backend ~default:"farmem" $ cores $ topology $ scale
    $ no_log $ no_model_check $ replay_budget)

let crash_job =
  Term.(
    const (fun make app seed window -> make ~app ~window:(Some window) seed)
    $ crash () $ stencil $ seed $ Arg.required window)

(* ---------------- bench ---------------- *)

let unbatched =
  Arg.(
    value & flag
    & info [ "unbatched" ]
        ~doc:
          "Run on the pre-batching cost model (multicast, lazy DSM \
           versioning and burst cache maintenance disabled) instead of \
           the default machine.")

let warmup ~default =
  Arg.(
    value
    & opt (int_at_least 0) default
    & info [ "warmup" ] ~docv:"N" ~doc:"Discarded runs before measuring.")

let repeat ~default =
  Arg.(
    value
    & opt (int_at_least 1) default
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Measured runs per case.  Architectural metrics must be \
           identical across repeats (the simulator is deterministic).")

(* ---------------- tracing ---------------- *)

let race_check =
  Arg.(
    value & flag
    & info [ "race-check" ]
        ~doc:
          "Record the run and check it for dynamic data races (exit 3 if \
           any are found).")

let model_check =
  Arg.(
    value & flag
    & info [ "model-check" ]
        ~doc:
          "Record the run and replay it through the formal PMC model's \
           history checker (exit 4 on violation).")

let trace_capacity =
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Per-core trace ring capacity (default 65536 events).")
