(* Prints the recorded traces of a few runs, event by event: every
   [Event.pp] line, a digest of the Perfetto JSON ([Export.to_string]
   with the run's stall counters) and, where the lowering is meant to be
   stable, a digest of [Replay.lower] (location count, skipped count and
   every model event).  The runs between them emit every kind of trace
   event:

     - the byte kernel (test/byte_kernel.ml) on all six back-ends:
       annotations, byte and word accesses, locks, tasks, NoC posts and
       cache maintenance;
     - two chaos runs (seed 7, default intensity) whose faults cover the
       NoC transport, the SDRAM and the tiles;
     - a logged farmem run cut by the crash schedule, whose trace ends in
       the power-cut event;
     - one event of every probe constructor, emitted straight into a
       recorder's probe sink, so every operation name and fault detail
       text is printed once.

   The trace layer's printers, its JSON export and its lowering must
   reproduce this file byte for byte.  Regenerate only for a change
   that is meant to alter what a trace holds or how it prints:

     dune build @all && _build/default/test/trace_digest.exe \
       > test/trace_golden.expected *)

open Pmc_sim
open Pmc_trace

let hex s = Digest.to_hex (Digest.string s)

let print_trace ~title (events : Event.t list) =
  Printf.printf "== %s (%d events)\n" title (List.length events);
  List.iter (fun e -> print_endline (Fmt.str "%a" Event.pp e)) events

let print_export machine events =
  Printf.printf "export %s\n"
    (hex (Export.to_string ~stats:(Machine.stats machine) events))

let pp_history_event b (e : Pmc_model.History.event) =
  match e with
  | E_read { proc; loc; value } -> Printf.bprintf b "r%d,%d,%d;" proc loc value
  | E_write { proc; loc; value } -> Printf.bprintf b "w%d,%d,%d;" proc loc value
  | E_acquire { proc; loc } -> Printf.bprintf b "a%d,%d;" proc loc
  | E_release { proc; loc } -> Printf.bprintf b "l%d,%d;" proc loc
  | E_acquire_ro { proc; loc } -> Printf.bprintf b "A%d,%d;" proc loc
  | E_release_ro { proc; loc } -> Printf.bprintf b "L%d,%d;" proc loc
  | E_fence { proc } -> Printf.bprintf b "f%d;" proc

let print_lowering events =
  let l = Replay.lower events in
  let b = Buffer.create 4096 in
  List.iter (pp_history_event b) l.Replay.events;
  for loc = 0 to l.Replay.locs - 1 do
    Printf.bprintf b "i%d;" (l.Replay.init loc)
  done;
  Printf.printf "lower locs=%d skipped=%d events=%d %s\n" l.Replay.locs
    l.Replay.skipped (List.length l.Replay.events) (hex (Buffer.contents b))

(* Run [app] with a recorder attached; a power cut ends the run early. *)
let recorded_run ~cfg ~app ~backend ~scale =
  let recorder = ref None in
  let app = Option.get (Pmc_apps.Registry.find app) in
  let on_api api = recorder := Some (Recorder.attach api) in
  (match Pmc_apps.Runner.run ~cfg ~on_api app ~backend ~scale with
  | _ -> ()
  | exception Engine.Power_cut _ -> ());
  let rec_ = Option.get !recorder in
  (Pmc.Api.machine (Recorder.api rec_), Recorder.events rec_)

let byte_kernels () =
  List.iter
    (fun backend ->
      let k = Byte_kernel.run ~record:true backend in
      let events = Recorder.events (Option.get k.Byte_kernel.recorder) in
      print_trace
        ~title:("bytes/" ^ Pmc.Backends.to_string backend)
        events;
      print_export k.Byte_kernel.machine events)
    Pmc.Backends.all

let chaos_runs () =
  List.iter
    (fun (app, backend, scale) ->
      let cfg = Config.chaos ~seed:7 { Config.small with cores = 4 } in
      let machine, events = recorded_run ~cfg ~app ~backend ~scale in
      print_trace
        ~title:
          (Printf.sprintf "chaos7/%s/%s/c4/s%d" app
             (Pmc.Backends.to_string backend)
             scale)
        events;
      print_export machine events;
      print_lowering events)
    [ ("reduce", Pmc.Backends.Dsm, 1); ("radiosity", Pmc.Backends.Nocc, 1) ]

let crash_cut () =
  let app = "mailbox" and backend = Pmc.Backends.Farmem and scale = 2 in
  let base = { Config.default with cores = 4; farmem_log = true } in
  let window =
    (Pmc_apps.Runner.run ~cfg:base
       (Option.get (Pmc_apps.Registry.find app))
       ~backend ~scale)
      .Pmc_apps.Runner.wall
  in
  let seed = 3 in
  let cfg = Config.crash ~seed ~window base in
  let machine, events = recorded_run ~cfg ~app ~backend ~scale in
  print_trace
    ~title:
      (Printf.sprintf "crash/%s/%s/c4/s%d/seed%d window=%d" app
         (Pmc.Backends.to_string backend)
         scale seed window)
    events;
  print_export machine events;
  print_lowering events

let probe_vocabulary () =
  let m = Machine.create { Config.small with cores = 4 } in
  let rec_ = Recorder.attach (Pmc.Backends.create Pmc.Backends.Nocc m) in
  let probe = Machine.probe m in
  List.iteri
    (fun time ev -> Probe.emit probe ~time ev)
    Probe.
      [
        Noc_post { src = 1; dst = 2; off = 64; bytes = 8; arrival = 40 };
        Cache_maint
          { core = 2; op = Wb_inval; addr = 0x10040; len = 64;
            lines_touched = 2; lines_written_back = 1 };
        Cache_maint
          { core = 3; op = Inval; addr = 0x10000; len = 16;
            lines_touched = 1; lines_written_back = 0 };
        Lock { core = 0; lock = 5; op = Acquire; transferred = true };
        Lock { core = 1; lock = 5; op = Release; transferred = false };
        Lock { core = 2; lock = 6; op = Acquire_ro; transferred = false };
        Lock { core = 3; lock = 6; op = Release_ro; transferred = false };
        Task { core = 1; op = Spawn };
        Task { core = 1; op = Finish };
        Fault (F_noc_drop { src = 0; dst = 1; seq = 2; attempt = 1 });
        Fault (F_noc_corrupt { src = 1; dst = 2; seq = 3; attempt = 2 });
        Fault (F_noc_delay { src = 2; dst = 3; seq = 4; cycles = 17 });
        Fault (F_noc_retry { src = 3; dst = 0; seq = 5; attempt = 3; at = 99 });
        Fault (F_link_dead { src = 0; dst = 2 });
        Fault (F_noc_degraded { src = 1; dst = 3; seq = 6 });
        Fault (F_sdram_retry { core = 2; attempt = 2 });
        Fault (F_tile_stall { core = 3; cycles = 250 });
        Fault (F_lock_timeout { core = 1; lock = 7; waited = 4000 });
        Fault (F_power_cut { cycle = 12345 });
        (* out-of-range cores land on core 0's ring *)
        Task { core = 9; op = Spawn };
      ];
  let events = Recorder.events rec_ in
  print_trace ~title:"probe vocabulary" events;
  print_export m events

let () =
  byte_kernels ();
  chaos_runs ();
  crash_cut ();
  probe_vocabulary ()
