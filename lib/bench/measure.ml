(* Run one benchmark case and distil the simulator's counters into the
   report metrics.

   The simulator is deterministic, so the architectural metrics (cycles,
   flits, flushes, lock handovers) are exact and identical across
   repeats — the harness asserts that instead of averaging it away.
   Host time is the only noisy quantity: it is measured per repeat,
   outlier-trimmed (drop min and max when there are at least three
   repeats) and averaged. *)

open Pmc_sim

type metrics = {
  cycles : int;          (* engine wall time of the whole run *)
  noc_flits : int;
  noc_writes : int;
  flushes : int;         (* cache flush/invalidate range operations *)
  lock_acquires : int;
  lock_transfers : int;  (* inter-tile lock handovers *)
  dcache_misses : int;
  instructions : int;
  utilization : float;
  (* served-traffic metrics; requests = 0 marks "app records none" *)
  requests : int;
  p50 : int;             (* exact request-latency percentiles, cycles *)
  p99 : int;
  p999 : int;
  lat_digest : int;      (* order-sensitive digest of the latency stream *)
  throughput : float;    (* requests per 1000 simulated cycles *)
}

type sample = {
  case : Spec.case;
  ok : bool;             (* checksum matched the sequential reference *)
  deterministic : bool;  (* metrics identical across all repeats *)
  repeats : int;
  metrics : metrics;
  host_s : float;        (* trimmed-mean host seconds per run *)
  host_cycles_per_s : float;  (* simulated cycles per host second *)
  minor_words : float;   (* trimmed-mean minor-heap words allocated per run *)
}

let metrics_of_result (r : Pmc_apps.Runner.result) : metrics =
  let s = r.Pmc_apps.Runner.summary in
  let sv = r.Pmc_apps.Runner.service in
  let svc f d = match sv with Some v -> f v | None -> d in
  {
    cycles = r.Pmc_apps.Runner.wall;
    noc_flits = s.Stats.noc_flits;
    noc_writes = s.Stats.noc_writes;
    flushes = s.Stats.flushes;
    lock_acquires = s.Stats.lock_acquires;
    lock_transfers = s.Stats.lock_transfers;
    dcache_misses = s.Stats.dcache_misses;
    instructions = s.Stats.instructions;
    utilization = Stats.utilization s;
    requests = svc (fun v -> v.Pmc_apps.Service.requests) 0;
    p50 = svc (fun v -> v.Pmc_apps.Service.p50) 0;
    p99 = svc (fun v -> v.Pmc_apps.Service.p99) 0;
    p999 = svc (fun v -> v.Pmc_apps.Service.p999) 0;
    lat_digest = svc (fun v -> v.Pmc_apps.Service.lat_digest) 0;
    throughput = svc (fun v -> v.Pmc_apps.Service.throughput) 0.0;
  }

let trimmed_mean xs =
  match xs with
  | [] -> 0.0
  | [ x ] -> x
  | _ :: _ :: _ ->
      let sorted = List.sort compare xs in
      let trimmed =
        if List.length sorted >= 3 then
          (* drop the fastest and slowest run *)
          List.filteri
            (fun i _ -> i > 0 && i < List.length sorted - 1)
            sorted
        else sorted
      in
      List.fold_left ( +. ) 0.0 trimmed /. float_of_int (List.length trimmed)

exception Unknown_app of string

let zero_metrics =
  {
    cycles = 0; noc_flits = 0; noc_writes = 0; flushes = 0;
    lock_acquires = 0; lock_transfers = 0; dcache_misses = 0;
    instructions = 0; utilization = 0.0; requests = 0; p50 = 0; p99 = 0;
    p999 = 0; lat_digest = 0; throughput = 0.0;
  }

(* A check case: time one of the model-plane workloads with the same
   discipline as a simulator case.  The work count lands in [cycles]
   (so the 2% cycle tolerance pins it exactly — it is deterministic)
   and the verdict digest in [lat_digest]; the gated rate is work per
   host second. *)
let run_check_case ~warmup ~repeat (c : Spec.case)
    (f : unit -> Checkload.outcome) : sample =
  let once () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let o = f () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    (o, t1 -. t0, w1 -. w0)
  in
  for _ = 1 to warmup do
    ignore (once ())
  done;
  let repeat = max 1 repeat in
  let runs = List.init repeat (fun _ -> once ()) in
  let outs = List.map (fun (o, _, _) -> o) runs in
  let times = List.map (fun (_, t, _) -> t) runs in
  let words = List.map (fun (_, _, w) -> w) runs in
  let o0 = List.hd outs in
  let host_s = trimmed_mean times in
  {
    case = c;
    ok = List.for_all (fun (o : Checkload.outcome) -> o.Checkload.ok) outs;
    deterministic = List.for_all (fun o -> o = o0) outs;
    repeats = repeat;
    metrics =
      { zero_metrics with
        cycles = o0.Checkload.work;
        lat_digest = o0.Checkload.digest };
    host_s;
    host_cycles_per_s =
      (if host_s > 0.0 then float_of_int o0.Checkload.work /. host_s
       else 0.0);
    minor_words = trimmed_mean words;
  }

let run_sim_case ?max_cycles ~unbatched ~warmup ~repeat (c : Spec.case) :
    sample =
  let app =
    match Pmc_apps.Registry.find c.Spec.app with
    | Some a -> a
    | None -> raise (Unknown_app c.Spec.app)
  in
  let cfg =
    let base =
      { Config.default with cores = c.Spec.cores;
        topology = c.Spec.topology }
    in
    Config.tighten_watchdog ?max_cycles
      (if unbatched then { base with batched = false } else base)
  in
  (* Monotonic-enough wall clock.  [Sys.time] is process-wide CPU time:
     it over-counts whenever anything else runs in the process, and under
     a parallel fan-out it would charge every case with the CPU burn of
     all concurrently running cases.  Per-case wall time is the quantity
     that stays meaningful at any [--jobs]. *)
  let once () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = Pmc_apps.Runner.run ~cfg app ~backend:c.Spec.backend
        ~scale:c.Spec.scale in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    (r, t1 -. t0, w1 -. w0)
  in
  for _ = 1 to warmup do
    ignore (once ())
  done;
  let repeat = max 1 repeat in
  let runs = List.init repeat (fun _ -> once ()) in
  let results = List.map (fun (r, _, _) -> r) runs in
  let times = List.map (fun (_, t, _) -> t) runs in
  let words = List.map (fun (_, _, w) -> w) runs in
  let first = List.hd results in
  let m0 = metrics_of_result first in
  let deterministic =
    List.for_all (fun r -> metrics_of_result r = m0) results
  in
  let host_s = trimmed_mean times in
  {
    case = c;
    ok = List.for_all Pmc_apps.Runner.ok results;
    deterministic;
    repeats = repeat;
    metrics = m0;
    host_s;
    host_cycles_per_s =
      (if host_s > 0.0 then float_of_int m0.cycles /. host_s else 0.0);
    minor_words = trimmed_mean words;
  }

let run_case ?max_cycles ~unbatched ~warmup ~repeat (c : Spec.case) :
    sample =
  match c.Spec.work with
  | Spec.Sim -> run_sim_case ?max_cycles ~unbatched ~warmup ~repeat c
  | Spec.Check_replay ->
      run_check_case ~warmup ~repeat c (fun () ->
          Checkload.replay ~procs:c.Spec.cores ~locs:(Spec.replay_locs c)
            ~events:c.Spec.scale)
  | Spec.Check_enum ->
      run_check_case ~warmup ~repeat c (fun () -> Checkload.enum ())
  | Spec.Check_crash ->
      run_check_case ~warmup ~repeat c (fun () ->
          Checkload.crash ~app:c.Spec.app ~cores:c.Spec.cores
            ~scale:c.Spec.scale)

(* ---------------- JSON (schema v5) ----------------

   The only schema this build reads or writes.  Every field is
   required: [work] ("sim", "check_replay", "check_enum",
   "check_crash"), the case's [topology], all fifteen metrics, the gated
   rate [host_cycles_per_s] and [minor_words].  Check cases store their
   deterministic work count in [cycles] and their verdict digest in
   [lat_digest]. *)

let schema_version = 5

let metrics_obj =
  Codec.(
    record
      (fun cycles noc_flits noc_writes flushes lock_acquires lock_transfers
           dcache_misses instructions utilization requests p50 p99 p999
           lat_digest throughput ->
        { cycles; noc_flits; noc_writes; flushes; lock_acquires;
          lock_transfers; dcache_misses; instructions; utilization;
          requests; p50; p99; p999; lat_digest; throughput })
      [
        field "cycles" int (fun m -> m.cycles);
        field "noc_flits" int (fun m -> m.noc_flits);
        field "noc_writes" int (fun m -> m.noc_writes);
        field "flushes" int (fun m -> m.flushes);
        field "lock_acquires" int (fun m -> m.lock_acquires);
        field "lock_transfers" int (fun m -> m.lock_transfers);
        field "dcache_misses" int (fun m -> m.dcache_misses);
        field "instructions" int (fun m -> m.instructions);
        field "utilization" float (fun m -> m.utilization);
        field "requests" int (fun m -> m.requests);
        field "p50" int (fun m -> m.p50);
        field "p99" int (fun m -> m.p99);
        field "p999" int (fun m -> m.p999);
        field "lat_digest" int (fun m -> m.lat_digest);
        field "throughput" float (fun m -> m.throughput);
      ])

let metrics_codec = Codec.obj metrics_obj

(* The sample's case is spliced into the sample object; its fabric
   resolves against its core count, so it is checked once both are
   read. *)
let case_obj =
  let work_name = function
    | Spec.Sim -> "sim"
    | Spec.Check_replay -> "check_replay"
    | Spec.Check_enum -> "check_enum"
    | Spec.Check_crash -> "check_crash"
  in
  Codec.(
    record
      (fun app work backend topology cores scale ->
        match Topology.resolve topology ~cores with
        | Ok topology -> { Spec.app; work; backend; topology; cores; scale }
        | Error e -> fail "topology" ("does not resolve: " ^ e))
      [
        field "app" string (fun c -> c.Spec.app);
        field "work"
          (enum work_name
             [ Spec.Sim; Spec.Check_replay; Spec.Check_enum;
               Spec.Check_crash ])
          (fun c -> c.Spec.work);
        field "backend" (enum Pmc.Backends.to_string Pmc.Backends.all)
          (fun c -> c.Spec.backend);
        field "topology" string (fun c -> Topology.to_string c.Spec.topology);
        field "cores" int (fun c -> c.Spec.cores);
        field "scale" int (fun c -> c.Spec.scale);
      ])

let sample_codec =
  Codec.(
    obj
      (record
         (fun case ok deterministic repeats metrics host_s host_cycles_per_s
              minor_words ->
           { case; ok; deterministic; repeats; metrics; host_s;
             host_cycles_per_s; minor_words })
         [
           inline case_obj (fun s -> s.case);
           field "ok" bool (fun s -> s.ok);
           field "deterministic" bool (fun s -> s.deterministic);
           field "repeats" int (fun s -> s.repeats);
           field "metrics" metrics_codec (fun s -> s.metrics);
           field "host_s" float (fun s -> s.host_s);
           field "host_cycles_per_s" float (fun s -> s.host_cycles_per_s);
           field "minor_words" float (fun s -> s.minor_words);
         ]))

let malformed = "Pmc_bench.Measure: malformed bench JSON"
let metrics_to_json = Codec.encode metrics_codec
let metrics_of_json = Codec.decode_exn ~what:malformed metrics_codec
let sample_to_json = Codec.encode sample_codec
let sample_of_json = Codec.decode_exn ~what:malformed sample_codec

(* The numeric metrics a {!Compare} run can gate on: the integer
   fields, in wire order. *)
let metric_names = Codec.keys ~only:Codec.int metrics_obj

let metric (m : metrics) name =
  match List.assoc_opt name (Codec.fields metrics_obj m) with
  | Some (Json.Num f) when List.mem name metric_names -> f
  | _ -> invalid_arg ("Measure.metric: unknown metric " ^ name)
