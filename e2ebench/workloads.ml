(* The four workloads.  Each one is a fixed unit of work made from the
   seed; the runner repeats the unit for the measured interval.  A unit
   checks every output it produces (into the run's Tally), folds every
   exact simulated quantity into a fingerprint, and times each
   user-facing operation: one simulation run (sim-star, sim-mesh), one
   verdict call (verify) or one served request (serve).

   Every workload has a Full size, which the timed runs measure, and a
   Mini size: the warm-up of the sim workloads, the tour of a traced run
   and the benchmark's own tests use it. *)

open Pmc_sim
module B = Pmc.Backends
module Runner = Pmc_apps.Runner
module History = Pmc_model.History
module Litmus = Pmc_model.Litmus
module Lprog = Pmc_model.Lprog
module Models = Pmc_model.Models
module Job = Pmc_jobs.Job
module Jresult = Pmc_jobs.Result
module Run = Pmc_jobs.Run
module Protocol = Pmc_serve.Protocol

type size = Full | Mini

type ctx = {
  tally : Tally.t;
  seed : int;
  serve_exe : string;  (** the pmc_serve binary the serve workload starts *)
  root : string;       (** repository root, for [examples/*.pmc] *)
  work_dir : string;   (** where the daemon's socket lives *)
}

type unit_result = {
  wall : float;        (** host seconds of the unit's fixed work *)
  sim_cycles : int;
      (** summed simulated wall cycles: of every run on sim-star and
          sim-mesh, of the recorded runs on verify (the crash and chaos
          runs end at seeded faults), and of every served simulation
          result on serve *)
  ops : float array;   (** host seconds per user-facing operation *)
  fingerprint : string;
  daemon_rss_kb : int option;  (** serve: the daemon's resident high-water *)
  daemon_setup : float;
      (** serve: daemon start-up until its first stats reply *)
  figures : (string * float * string) list;
      (** workload-specific figures, printed beside the metrics *)
}

(* [setup] redoes the set-up work (input generation and warm-up) and
   returns its host seconds; the runner runs it before every unit, so the
   median covers the whole measured interval. *)
type prepared = { setup : unit -> float; run_unit : unit -> unit_result }

let names = [ "sim-star"; "sim-mesh"; "verify"; "serve" ]

(* ---------------- shared helpers ---------------- *)

let app name =
  match Pmc_apps.Registry.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

(* The simulated machine's workload seed (Config.seed) wherever a
   served-traffic app runs.  It is fixed: at these request counts a
   Zipfian stream's modelled cost moves by ~10% from one traffic seed to
   the next, which would make the amount of work depend on the
   benchmark's seed. *)
let traffic_seed = 1

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Per-unit accumulators. *)
type acc = {
  fp : Fingerprint.t;
  mutable cycles : int;
  mutable ops : float list;  (** newest first *)
  mutable gc_s : float;  (** harness collections inside the unit *)
}

let new_acc () =
  { fp = Fingerprint.create (); cycles = 0; ops = []; gc_s = 0. }

(* With [collect], the operation starts from a collected heap, as it
   would in a fresh process: the previous operation's garbage (simulated
   machines hold megabytes of bigarrays) is neither charged to it nor
   allowed to vary the heap it runs in.  The collection is excluded from
   the unit's wall time. *)
let timed_op ?(collect = true) acc f =
  if collect then begin
    let t0 = Span.now () in
    Gc.full_major ();
    acc.gc_s <- acc.gc_s +. (Span.now () -. t0)
  end;
  let t0 = Span.now () in
  Fun.protect f ~finally:(fun () -> acc.ops <- (Span.now () -. t0) :: acc.ops)

let finish ?daemon_rss_kb ?(daemon_setup = 0.) ?(figures = []) acc ~wall =
  let wall = wall -. acc.gc_s in
  { wall; sim_cycles = acc.cycles; ops = Array.of_list (List.rev acc.ops);
    fingerprint = Fingerprint.to_hex acc.fp; daemon_rss_kb; daemon_setup;
    figures }

let timed f =
  let t0 = Span.now () in
  let v = f () in
  (v, Span.now () -. t0)

(* ---------------- simulator runs (sim-star, sim-mesh) ---------------- *)

let category_metric = function
  | Stats.Busy -> "stats.busy"
  | Stats.Private_read_stall -> "stats.private_read_stall"
  | Stats.Shared_read_stall -> "stats.shared_read_stall"
  | Stats.Write_stall -> "stats.write_stall"
  | Stats.Icache_stall -> "stats.icache_stall"
  | Stats.Lock_stall -> "stats.lock_stall"
  | Stats.Flush_overhead -> "stats.flush_overhead"

(* Traced runs only: count the runtime's annotation events and the
   simulator's probe events. *)
let observe_api api =
  Pmc.Api.set_trace api (Some (fun ~core:_ _ -> Span.add "api.events" 1.));
  Probe.set
    (Machine.probe (Pmc.Api.machine api))
    (Some
       (fun ~time -> function
         | Probe.Noc_post { bytes; arrival; _ } ->
             Span.add "noc.posts" 1.;
             Span.add "noc.bytes" (float bytes);
             Span.add "noc.transit_cycles" (float (arrival - time))
         | Probe.Cache_maint { lines_touched; lines_written_back; _ } ->
             Span.add "probe.maint_lines_touched" (float lines_touched);
             Span.add "probe.maint_lines_written_back"
               (float lines_written_back)
         | Probe.Lock _ | Probe.Task _ | Probe.Fault _ -> ()))

let fold_result acc (r : Runner.result) =
  let s = r.summary and fp = acc.fp in
  Fingerprint.string fp r.app;
  Fingerprint.string fp (B.to_string r.backend);
  List.iter (Fingerprint.int fp)
    [ r.cores; r.scale; r.wall; s.wall_cycles; s.total_cycles;
      s.instructions; s.dcache_hits; s.dcache_misses; s.icache_misses;
      s.lock_acquires; s.lock_transfers; s.noc_writes; s.noc_flits;
      s.flushes ];
  List.iter (fun (_, c) -> Fingerprint.int fp c) s.per_category;
  Fingerprint.int64 fp r.checksum;
  List.iter
    (fun (c, v) -> Span.add (category_metric c) (float v))
    s.per_category;
  List.iter
    (fun (m, v) -> Span.add m (float v))
    [ ("machine.dcache_hits", s.dcache_hits);
      ("machine.dcache_misses", s.dcache_misses);
      ("machine.icache_misses", s.icache_misses);
      ("machine.flushes", s.flushes);
      ("lock.acquires", s.lock_acquires);
      ("lock.transfers", s.lock_transfers);
      ("noc.writes", s.noc_writes);
      ("noc.flits", s.noc_flits) ];
  Option.iter
    (fun (v : Pmc_apps.Service.summary) ->
      List.iter (Fingerprint.int fp)
        [ v.requests; v.p50; v.p99; v.p999; v.max_latency; v.lat_digest ];
      Span.add "service.requests" (float v.requests);
      Span.set_max "service.req_p50_cycles" (float v.p50);
      Span.set_max "service.req_p999_cycles" (float v.p999))
    r.service

let sim_run ctx acc ~cfg (name, backend, scale) =
  let kind = B.to_string backend in
  let what =
    Printf.sprintf "%s/%s/%s/s%d" name kind
      (Topology.to_string cfg.Config.topology) scale
  in
  let on_api = if !Span.enabled then Some observe_api else None in
  let r =
    timed_op acc (fun () ->
        Tally.guard ctx.tally ~what (fun () ->
            Span.with_ ("sim " ^ what)
              ~time:[ "engine.host_s"; "backend." ^ kind ^ ".host_s" ]
              ~words:"engine.minor_words"
              (fun () -> Runner.run ~cfg ?on_api (app name) ~backend ~scale)))
  in
  Option.iter
    (fun (r : Runner.result) ->
      Tally.check ctx.tally ~what:(what ^ ": checksum differs from reference")
        (Runner.ok r);
      acc.cycles <- acc.cycles + r.wall;
      Span.add "engine.sim_cycles" (float r.wall);
      Span.add ("backend." ^ kind ^ ".sim_cycles") (float r.wall);
      fold_result acc r)
    r;
  r

(* sim-star: the eight paper apps on all six back-ends, 32-tile star.
   The seed is the machine's Config.seed (it drives the synthetic
   instruction stream).  The cases run in a fixed order: the order moves
   single cases' host time by up to 50% through the allocator's state. *)
let star_apps = function
  | Full ->
      [ ("radiosity", 128); ("raytrace", 32); ("volrend", 32);
        ("motion_est", 2); ("streaming", 8); ("stencil", 2);
        ("histogram", 16); ("reduce", 512) ]
  | Mini -> [ ("histogram", 8) ]

let star_unit ctx cases () =
  let acc = new_acc () in
  let cfg = { Config.default with seed = ctx.seed } in
  let (), wall =
    timed (fun () -> List.iter (fun c -> ignore (sim_run ctx acc ~cfg c)) cases)
  in
  finish acc ~wall

let star_cases size =
  List.concat_map
    (fun (a, scale) -> List.map (fun b -> (a, b, scale)) B.all)
    (star_apps size)

(* sim-mesh: served traffic on routed fabrics, in a fixed order; the
   inputs do not depend on the seed (see [traffic_seed]).  farmem is left
   out: its far-memory port makes these cases ~10x slower than the other
   five back-ends together; sim-star and verify cover it. *)
let mesh_backends = [ B.Seqcst; B.Nocc; B.Swcc; B.Dsm; B.Spm ]

(* (fabric, tiles, back-ends, apps).  A 1024-tile machine allocates
   ~200 MB, so the hierarchical fabric runs only swcc (SDRAM-bound) and
   dsm (NoC-bound): each such machine adds more host noise than signal. *)
let mesh_fabrics = function
  | Full ->
      [ ("mesh:16x16", 256, mesh_backends, [ ("kv_store", 4); ("mailbox", 4) ]);
        ("hier:32x32", 1024, [ B.Swcc; B.Dsm ], [ ("kv_store", 2) ]) ]
  | Mini ->
      [ ("mesh:4x4", 16, mesh_backends, [ ("kv_store", 4); ("mailbox", 4) ]);
        ("hier:4x4", 16, [ B.Swcc; B.Dsm ], [ ("kv_store", 4) ]) ]

let mesh_cases size =
  List.concat_map
    (fun (topo, cores, backends, apps) ->
      let topology =
        match Topology.resolve topo ~cores with
        | Ok t -> t
        | Error e -> failwith e
      in
      let cfg =
        { Config.default with cores; topology; seed = traffic_seed }
      in
      List.concat_map
        (fun (a, scale) ->
          List.map (fun b -> (cfg, (a, b, scale))) backends)
        apps)
    (mesh_fabrics size)

let mesh_unit ctx cases () =
  let acc = new_acc () in
  let p50 = ref 0 and p999 = ref 0 and requests = ref 0 in
  let (), wall =
    timed (fun () ->
        List.iter
          (fun (cfg, c) ->
            match sim_run ctx acc ~cfg c with
            | Some { Runner.service = Some s; _ } ->
                requests := !requests + s.requests;
                p50 := max !p50 s.p50;
                p999 := max !p999 s.p999
            | Some { Runner.service = None; _ } ->
                Tally.check ctx.tally ~what:"served app recorded no requests"
                  false
            | None -> ())
          cases)
  in
  finish acc ~wall
    ~figures:
      [ ("requests", float !requests, "count");
        ("req_p50_cycles", float !p50, "cycles");
        ("req_p999_cycles", float !p999, "cycles") ]

(* ---------------- verify ---------------- *)

(* Replay traces in two classes of similar model-event count (~3k):
   few-location traces (8 and 128 locations) and many-location traces
   (500-530 locations).  The checker's frontier rows grow with
   procs^2 * locs^2, so a change that helps one class can cost the other.
   raytrace is left out: every core reads its 773-word scene word by word,
   so its 4-core trace never drops below ~8.8k model events, and that one
   check peaks at ~470 MB; with it the workload peaked at 724 MB. *)
let trace_cases = function
  | Full ->
      [ ("few", "mailbox", 96); ("few", "histogram", 42);
        ("many", "stencil", 1); ("many", "radiosity", 20) ]
  | Mini -> [ ("few", "mailbox", 16); ("many", "stencil", 1) ]

let litmus_programs = function
  | Full -> Lprog.all_standard
  | Mini -> [ Lprog.sb; Lprog.mp_fence ]

(* Eight cuts per app: the cost of an experiment grows with its cut
   cycle, so more, smaller experiments keep the seed from moving the
   workload's cost. *)
let crash_apps = function
  | Full -> [ ("mailbox", 4); ("histogram", 8) ]
  | Mini -> [ ("mailbox", 4) ]

(* Few-location apps only: a chaos run replays its trace, and a
   many-location replay would make the run's cost follow the fault seed. *)
let chaos_runs = function
  | Full ->
      [ ("histogram", B.Swcc, 16); ("mailbox", B.Dsm, 8);
        ("mailbox", B.Nocc, 8); ("reduce", B.Spm, 256) ]
  | Mini -> [ ("mailbox", B.Dsm, 4) ]

let verify_trace ctx acc events_seen (cls, name, scale) =
  let what = Printf.sprintf "replay %s/%s/s%d" cls name scale in
  let cfg = { Config.default with cores = 4; seed = traffic_seed } in
  timed_op acc @@ fun () ->
  ignore
  @@ Tally.guard ctx.tally ~what
  @@ fun () ->
  let recorder = ref None in
  let r, trace, dropped =
    Span.with_ "trace.record" ~time:[ "trace.record_s" ] (fun () ->
        let r =
          Runner.run ~cfg
            ~on_api:(fun api -> recorder := Some (Pmc_trace.Recorder.attach api))
            (app name) ~backend:B.Swcc ~scale
        in
        let rc = Option.get !recorder in
        (r, Pmc_trace.Recorder.events rc, Pmc_trace.Recorder.dropped_total rc))
  in
  Tally.check ctx.tally ~what:(what ^ ": checksum") (Runner.ok r);
  Tally.check ctx.tally ~what:(what ^ ": trace ring overflowed") (dropped = 0);
  let l =
    Span.with_ "replay.lower" ~time:[ "replay.lower_s" ] (fun () ->
        Pmc_trace.Replay.lower trace)
  in
  let report =
    Span.with_ ("history." ^ cls ^ ".check")
      ~time:[ "history." ^ cls ^ ".check_s" ]
      ~words:"history.minor_words"
      (fun () ->
        History.check ~init:l.init ~procs:4 ~locs:(max 1 l.locs) l.events)
  in
  Tally.check ctx.tally ~what:(what ^ ": PMC-inconsistent replay")
    (History.ok report);
  let n_trace = List.length trace and n_model = List.length l.events in
  events_seen := !events_seen + n_trace;
  acc.cycles <- acc.cycles + r.wall;
  List.iter (Fingerprint.int acc.fp)
    [ r.wall; n_trace; n_model; l.locs; l.skipped; dropped;
      List.length report.violations ];
  Fingerprint.int64 acc.fp r.checksum;
  Span.add "trace.events" (float n_trace);
  Span.add "trace.dropped" (float dropped);
  Span.set_max "replay.locs_max" (float l.locs);
  Span.add "replay.skipped" (float l.skipped);
  Span.add ("history." ^ cls ^ ".events") (float n_model);
  Span.set_max ("history." ^ cls ^ ".locs_max") (float l.locs)

let model_name (module M : Models.SEM) = M.name

(* Enumerate every program under every model; returns the outcome digest
   and the number of states explored. *)
let enumerate_corpus ctx acc programs =
  let digest = Fingerprint.create () and states = ref 0 in
  List.iter
    (fun (p : Lprog.t) ->
      let results =
        timed_op acc (fun () ->
            List.filter_map
              (fun m ->
                Tally.guard ctx.tally
                  ~what:("enumerate " ^ p.name ^ " / " ^ model_name m)
                  (fun () ->
                    Span.with_ "litmus.enumerate" ~time:[ "litmus.enumerate_s" ]
                      ~words:"litmus.minor_words"
                      (fun () -> Litmus.enumerate m p)))
              Models.all)
      in
      List.iter
        (fun (r : Litmus.result) ->
          Fingerprint.string digest (p.name ^ "/" ^ r.model);
          List.iter (Fingerprint.string digest) (Litmus.outcomes_list r);
          Fingerprint.int digest r.states_explored;
          Fingerprint.int digest r.stuck_states;
          states := !states + r.states_explored;
          Span.add "litmus.states" (float r.states_explored);
          Span.add "litmus.stuck" (float r.stuck_states))
        results;
      let find m =
        List.find_opt (fun (r : Litmus.result) -> r.model = model_name m) results
      in
      match
        ( find (module Models.Sc), find (module Models.Pc),
          find (module Models.Cc), find (module Models.Slow) )
      with
      | Some sc, Some pc, Some cc, Some slow ->
          Tally.check ctx.tally
            ~what:("strength chain SC<=PC<=CC<=Slow fails on " ^ p.name)
            Litmus.(subset_of sc pc && subset_of pc cc && subset_of cc slow)
      | _ -> ())
    programs;
  (Fingerprint.to_hex digest, !states)

let verify_crash ctx acc size =
  List.iter
    (fun (name, scale) ->
      let seeds =
        List.init (if size = Full then 8 else 1) (fun i -> (ctx.seed * 8) + i)
      in
      timed_op acc (fun () ->
          Tally.guard ctx.tally ~what:("crash sweep " ^ name) (fun () ->
              Span.with_ "crash.sweep" ~time:[ "crash.experiment_s" ] (fun () ->
                  Pmc_apps.Crash.sweep ~apps:[ app name ] ~backend:B.Farmem
                    ~cores:4 ~scale ~seeds ())))
      |> Option.iter (fun (sw : Pmc_apps.Crash.sweep) ->
             Span.add "crash.cuts" (float sw.cuts);
             List.iter
               (fun (r : Pmc_apps.Crash.report) ->
                 Tally.check ctx.tally
                   ~what:
                     (Printf.sprintf "crash %s seed %d: %s" name r.seed
                        (Pmc_apps.Crash.verdict_name r.verdict))
                   (Pmc_apps.Crash.acceptable r.verdict);
                 Fingerprint.string acc.fp (Pmc_apps.Crash.verdict_name r.verdict);
                 List.iter (Fingerprint.int acc.fp)
                   [ r.wall; Option.value ~default:(-1) r.cut; r.events ])
               sw.reports))
    (crash_apps size)

let verify_chaos ctx acc size =
  List.iteri
    (fun i (name, backend, scale) ->
      let seed = (ctx.seed * 16) + i in
      timed_op acc (fun () ->
          Tally.guard ctx.tally ~what:("chaos " ^ name) (fun () ->
              Span.with_ "chaos.run" ~time:[ "chaos.run_s" ] (fun () ->
                  Pmc_apps.Chaos.run_one (app name) ~backend ~cores:4 ~scale
                    ~seed)))
      |> Option.iter (fun (r : Pmc_apps.Chaos.report) ->
             Tally.check ctx.tally
               ~what:
                 (Printf.sprintf "chaos %s seed %d: %s" name seed
                    (Pmc_apps.Chaos.verdict_name r.verdict))
               (Pmc_apps.Chaos.acceptable r.verdict);
             let injected = Pmc_apps.Chaos.total_injected r.faults in
             Span.add "fault.injected" (float injected);
             Fingerprint.string acc.fp (Pmc_apps.Chaos.verdict_name r.verdict);
             List.iter (Fingerprint.int acc.fp)
               [ r.wall; r.events; r.dropped; injected;
                 Bool.to_int r.replayed ]))
    (chaos_runs size)

(* The replays run last: they leave the largest heap behind. *)
let verify_unit ctx size ~litmus_reference () =
  let acc = new_acc () in
  let events = ref 0 in
  (* host seconds of [f], without the harness collections inside it *)
  let timed_work f =
    let gc0 = acc.gc_s in
    let v, dt = timed f in
    (v, dt -. (acc.gc_s -. gc0))
  in
  let figures, wall =
    timed (fun () ->
        let (digest, states), enum_s =
          timed_work (fun () -> enumerate_corpus ctx acc (litmus_programs size))
        in
        Tally.check ctx.tally
          ~what:"litmus outcome digest differs from a fresh enumeration"
          (digest = litmus_reference);
        Fingerprint.string acc.fp digest;
        verify_crash ctx acc size;
        verify_chaos ctx acc size;
        let (), trace_s =
          timed_work (fun () ->
              List.iter (verify_trace ctx acc events) (trace_cases size))
        in
        [ ("verdict_events_per_s", float !events /. trace_s, "1/s");
          ("enum_states_per_s", float states /. enum_s, "1/s") ])
  in
  finish acc ~wall ~figures

(* ---------------- serve ---------------- *)

let examples ctx =
  let dir = Filename.concat ctx.root "examples" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pmc")
  |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (Filename.concat "examples" f, In_channel.with_open_bin path In_channel.input_all))

(* The distinct jobs of one stream: each standard litmus program under
   every model, the example .pmc files, and small bench and chaos jobs.
   A cold pass over all of them takes a few hundred milliseconds.  The
   chaos jobs replay few-location traces under fixed fault seeds. *)
let serve_jobs ctx size =
  let programs =
    match size with
    | Full -> Run.program_names
    | Mini -> List.filteri (fun i _ -> i < 3) Run.program_names
  in
  let litmus =
    List.map
      (fun program -> Job.Litmus { program; models = []; limit = None })
      programs
  in
  let check =
    List.map (fun (name, source) -> Job.Check { name; source }) (examples ctx)
    |> List.filteri (fun i _ -> size = Full || i = 0)
  in
  let bench =
    (match size with
    | Full ->
        [ ("histogram", "swcc", 16); ("stencil", "dsm", 2);
          ("reduce", "spm", 256); ("mailbox", "nocc", 8);
          ("kv_store", "swcc", 4); ("raytrace", "farmem", 8) ]
    | Mini -> [ ("histogram", "swcc", 8) ])
    |> List.map (fun (app, backend, scale) ->
           Job.Bench
             { app; backend; topology = "star"; cores = 4; scale;
               unbatched = false; warmup = 0; repeat = 1 })
  in
  let chaos =
    (match size with
    | Full ->
        [ ("histogram", "dsm", 16); ("mailbox", "swcc", 8);
          ("mailbox", "spm", 8); ("reduce", "nocc", 256) ]
    | Mini -> [ ("mailbox", "dsm", 4) ])
    |> List.mapi (fun i (c_app, c_backend, c_scale) ->
           Job.Chaos
             { c_app; c_backend; c_topology = "star"; c_cores = 4; c_scale;
               seed = 16 + i; intensity = 1.0;
               model_check = true; replay_budget = None })
  in
  Array.of_list (litmus @ check @ bench @ chaos)

(* A closed-loop stream: a cold pass over every distinct job in job order
   (cache misses: run plus insert), then [hits_per_miss] repeats of each
   job in a seeded order (cache hits).  With hits and misses interleaved
   by the seed instead, the daemon's peak memory moved by 20% with the
   seed.  Entries are (job index, is_miss). *)
let serve_stream ctx ~jobs ~hits_per_miss =
  let k = Array.length jobs in
  let hits = List.init (k * hits_per_miss) (fun i -> (i mod k, false)) in
  Array.of_list (List.init k (fun j -> (j, true)) @ shuffle (rng ctx 4) hits)

let result_cycles = function
  | Jresult.Bench_measured b -> b.metrics.Pmc_bench.Measure.cycles
  | Jresult.Chaos_soaked r -> r.wall
  | Jresult.Crash_checked r -> r.wall
  | Jresult.Litmus_outcomes _ | Jresult.Check_checked _ | Jresult.Error _ -> 0

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             match String.split_on_char ':' l with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
  | exception Sys_error _ -> None

type conn = { fd : Unix.file_descr; ic : in_channel }

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

let request conn req =
  send conn (Protocol.request_to_line req);
  Protocol.response_of_line (input_line conn.ic)

(* Connect to a daemon that is still binding its socket. *)
let rec connect ~pid ~sock ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      { fd; ic = Unix.in_channel_of_descr fd }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if Span.now () > deadline then failwith "daemon did not start";
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up");
      Unix.sleepf 0.002;
      connect ~pid ~sock ~deadline

let stats_of = function
  | Ok (Protocol.Stats_reply s) -> s
  | _ -> failwith "malformed stats reply"

(* Start a cold daemon, stream every request through one connection,
   check each reply byte for byte against the in-process result, then
   shut the daemon down and reap it. *)
let serve_daemon_run ctx acc ~jobs ~expected ~local_s ~stream =
  let sock = Filename.concat ctx.work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let t0 = Span.now () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process ctx.serve_exe
          [| ctx.serve_exe; "daemon"; "--socket"; sock; "--jobs"; "1"; "--quiet" |]
          null null Unix.stderr)
  in
  let reaped = ref false in
  let reap () =
    if not !reaped then begin
      reaped := true;
      ignore (Unix.waitpid [] pid)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap ()
      end;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () ->
      let conn = connect ~pid ~sock ~deadline:(t0 +. 30.) in
      Fun.protect ~finally:(fun () -> Unix.close conn.fd) @@ fun () ->
      let first = stats_of (request conn Protocol.Stats) in
      let setup = Span.now () -. t0 in
      let hits = ref [] and misses = ref [] and overhead = ref 0. in
      let (), wall =
        timed (fun () ->
            Array.iter
              (fun (j, miss) ->
                let job = jobs.(j) in
                let what = "serve " ^ Job.kind_name job ^ " " ^ Job.key job in
                (* a request whose I/O fails leaves the connection in an
                   unknown state: count it and end the run *)
                match
                  timed_op ~collect:false acc (fun () ->
                    Tally.guard ctx.tally ~what (fun () ->
                        let line =
                          Span.with_ "protocol.encode" ~time:[ "protocol.encode_s" ]
                            (fun () ->
                              Protocol.request_to_line
                                (Protocol.Submit
                                   { job; budget = Run.no_budget; wait = true }))
                        in
                        let t_send = Span.now () in
                        send conn line;
                        let reply = input_line conn.ic in
                        let rt = Span.now () -. t_send in
                        if miss then begin
                          misses := rt :: !misses;
                          overhead := !overhead +. rt -. local_s.(j)
                        end
                        else hits := rt :: !hits;
                        match
                          Span.with_ "protocol.decode" ~time:[ "protocol.decode_s" ]
                            (fun () -> Protocol.response_of_line reply)
                        with
                        | Ok (Protocol.Job_result { id; _ }) ->
                            let want =
                              Protocol.response_to_line
                                (Protocol.Job_result { id; result = expected.(j) })
                            in
                            Tally.check ctx.tally
                              ~what:(what ^ ": reply differs from in-process run")
                              (String.equal reply want);
                            acc.cycles <- acc.cycles + result_cycles expected.(j);
                            Fingerprint.string acc.fp
                              (Pmc_bench.Json.to_compact
                                 (Jresult.to_json expected.(j)))
                        | Ok _ | Error _ ->
                            Tally.check ctx.tally
                              ~what:(what ^ ": refused or malformed: " ^ reply)
                              false))
                with
                | Some () -> ()
                | None -> failwith "serve run aborted")
              stream)
      in
      let last = stats_of (request conn Protocol.Stats) in
      let rss = vm_hwm_kb (string_of_int pid) in
      (match request conn Protocol.Shutdown with
      | Ok (Protocol.Shutdown_started _) -> ()
      | _ -> failwith "daemon refused shutdown");
      reap ();
      let p50 l =
        match l with [] -> 0. | l -> 1e3 *. Tally.median (Array.of_list l)
      in
      (match !hits @ !misses with
      | [] -> ()
      | all ->
          let _, tail = Tally.tail (Array.of_list all) ~want:950 in
          Span.set_max "serve.p95_ms" (1e3 *. tail));
      Span.set_max "serve.hit_p50_ms" (p50 !hits);
      Span.set_max "serve.miss_p50_ms" (p50 !misses);
      Span.add "serve.overhead_s" !overhead;
      Span.add "serve.cache_hits" (float last.cache_hits);
      Span.add "serve.cache_misses" (float last.cache_misses);
      Span.add "serve.rejected" (float last.rejected);
      Span.set_max "serve.queue_depth_max"
        (float (max first.queue_depth last.queue_depth));
      (wall, setup, rss, last))

let serve_prepare ctx size =
  let inputs () =
    let jobs = serve_jobs ctx size in
    (jobs, serve_stream ctx ~jobs ~hits_per_miss:(if size = Full then 3 else 1))
  in
  let jobs, stream = inputs () in
  (* The oracle: every distinct job run in-process, outside set-up. *)
  let local_s = Array.make (Array.length jobs) 0. in
  let expected =
    Array.mapi
      (fun j job ->
        let r, dt = timed (fun () -> Run.run job) in
        local_s.(j) <- dt;
        r)
      jobs
  in
  let run_unit () =
    let acc = new_acc () in
    Array.iteri
      (fun j job -> Span.add ("jobs." ^ Job.kind_name job ^ ".run_s") local_s.(j))
      jobs;
    match
      Tally.guard ctx.tally ~what:"serve daemon run" (fun () ->
          serve_daemon_run ctx acc ~jobs ~expected ~local_s ~stream)
    with
    | Some (wall, setup, rss, last) ->
        let served = float (Array.length stream) in
        finish acc ~wall ?daemon_rss_kb:rss ~daemon_setup:setup
          ~figures:
            [ ("serve_jobs_per_s", served /. wall, "1/s");
              ( "hit_ratio",
                float last.cache_hits
                /. float (max 1 (last.cache_hits + last.cache_misses)),
                "ratio" ) ]
    | None -> finish acc ~wall:0.
  in
  let setup () = snd (timed inputs) in
  { setup; run_unit }

(* ---------------- preparation ---------------- *)

(* Set-up is input generation plus a warm-up pass of the Mini unit.
   Oracles that only check outputs run once, outside it. *)
let prepare ctx name size =
  let sim_setup make_unit =
    let setup () =
      let t0 = Span.now () in
      ignore (make_unit Mini ());
      Span.now () -. t0
    in
    { setup; run_unit = make_unit size }
  in
  match name with
  | "sim-star" -> sim_setup (fun size -> star_unit ctx (star_cases size))
  | "sim-mesh" -> sim_setup (fun size -> mesh_unit ctx (mesh_cases size))
  | "verify" ->
      let reference size =
        fst (enumerate_corpus ctx (new_acc ()) (litmus_programs size))
      in
      let refs = [ (Full, reference Full); (Mini, reference Mini) ] in
      sim_setup (fun size ->
          verify_unit ctx size ~litmus_reference:(List.assoc size refs))
  | "serve" -> serve_prepare ctx size
  | other -> invalid_arg ("unknown workload " ^ other)
