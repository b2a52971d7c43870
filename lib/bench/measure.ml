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
    if unbatched then { base with batched = false } else base
  in
  let cfg =
    (* a per-request budget only ever tightens the livelock watchdog *)
    match max_cycles with
    | None -> cfg
    | Some m -> { cfg with Config.max_cycles = min m cfg.Config.max_cycles }
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

(* ---------------- JSON (schema v5) ----------------

   The only schema this build reads or writes.  Every field is
   required: [work] ("sim", "check_replay", "check_enum"), the case's
   [topology], all fifteen metrics, the gated rate [host_cycles_per_s]
   and [minor_words].  Check cases store their deterministic work count
   in [cycles] and their verdict digest in [lat_digest]. *)

let schema_version = 5

let work_to_string = function
  | Spec.Sim -> "sim"
  | Spec.Check_replay -> "check_replay"
  | Spec.Check_enum -> "check_enum"

let work_of_string = function
  | "sim" -> Some Spec.Sim
  | "check_replay" -> Some Spec.Check_replay
  | "check_enum" -> Some Spec.Check_enum
  | _ -> None

let metrics_to_json (m : metrics) : Json.t =
  Json.Obj
    [
      ("cycles", Json.int m.cycles);
      ("noc_flits", Json.int m.noc_flits);
      ("noc_writes", Json.int m.noc_writes);
      ("flushes", Json.int m.flushes);
      ("lock_acquires", Json.int m.lock_acquires);
      ("lock_transfers", Json.int m.lock_transfers);
      ("dcache_misses", Json.int m.dcache_misses);
      ("instructions", Json.int m.instructions);
      ("utilization", Json.float m.utilization);
      ("requests", Json.int m.requests);
      ("p50", Json.int m.p50);
      ("p99", Json.int m.p99);
      ("p999", Json.int m.p999);
      ("lat_digest", Json.int m.lat_digest);
      ("throughput", Json.float m.throughput);
    ]

let sample_to_json (s : sample) : Json.t =
  Json.Obj
    [
      ("app", Json.Str s.case.Spec.app);
      ("work", Json.Str (work_to_string s.case.Spec.work));
      ("backend", Json.Str (Pmc.Backends.to_string s.case.Spec.backend));
      ("topology", Json.Str (Topology.to_string s.case.Spec.topology));
      ("cores", Json.int s.case.Spec.cores);
      ("scale", Json.int s.case.Spec.scale);
      ("ok", Json.Bool s.ok);
      ("deterministic", Json.Bool s.deterministic);
      ("repeats", Json.int s.repeats);
      ("metrics", metrics_to_json s.metrics);
      ("host_s", Json.float s.host_s);
      ("host_cycles_per_s", Json.float s.host_cycles_per_s);
      ("minor_words", Json.float s.minor_words);
    ]

let fail msg = failwith ("Pmc_bench.Measure: malformed bench JSON: " ^ msg)
let req what = function Some v -> v | None -> fail ("missing " ^ what)

let metrics_of_json (j : Json.t) : metrics =
  let i key = req key (Json.get_int key j) in
  let f key = req key (Json.get_num key j) in
  {
    cycles = i "cycles";
    noc_flits = i "noc_flits";
    noc_writes = i "noc_writes";
    flushes = i "flushes";
    lock_acquires = i "lock_acquires";
    lock_transfers = i "lock_transfers";
    dcache_misses = i "dcache_misses";
    instructions = i "instructions";
    utilization = f "utilization";
    requests = i "requests";
    p50 = i "p50";
    p99 = i "p99";
    p999 = i "p999";
    lat_digest = i "lat_digest";
    throughput = f "throughput";
  }

let sample_of_json (j : Json.t) : sample =
  let str key = req key (Json.get_str key j) in
  let backend =
    let s = str "backend" in
    match Pmc.Backends.of_string s with
    | Some b -> b
    | None -> fail ("unknown backend " ^ s)
  in
  let cores = req "cores" (Json.get_int "cores" j) in
  let topology =
    match Topology.resolve (str "topology") ~cores with
    | Ok t -> t
    | Error e -> fail e
  in
  let work =
    let s = str "work" in
    match work_of_string s with
    | Some w -> w
    | None -> fail ("unknown work kind " ^ s)
  in
  {
    case =
      {
        Spec.app = str "app";
        backend;
        topology;
        cores;
        scale = req "scale" (Json.get_int "scale" j);
        work;
      };
    ok = req "ok" (Json.get_bool "ok" j);
    deterministic = req "deterministic" (Json.get_bool "deterministic" j);
    repeats = req "repeats" (Json.get_int "repeats" j);
    metrics = metrics_of_json (req "metrics" (Json.member "metrics" j));
    host_s = req "host_s" (Json.get_num "host_s" j);
    host_cycles_per_s =
      req "host_cycles_per_s" (Json.get_num "host_cycles_per_s" j);
    minor_words = req "minor_words" (Json.get_num "minor_words" j);
  }

(* The numeric metrics a {!Compare} run can gate on, with accessors. *)
let metric_names =
  [ "cycles"; "noc_flits"; "noc_writes"; "flushes"; "lock_acquires";
    "lock_transfers"; "dcache_misses"; "instructions"; "requests";
    "p50"; "p99"; "p999"; "lat_digest" ]

let metric (m : metrics) = function
  | "cycles" -> float_of_int m.cycles
  | "noc_flits" -> float_of_int m.noc_flits
  | "noc_writes" -> float_of_int m.noc_writes
  | "flushes" -> float_of_int m.flushes
  | "lock_acquires" -> float_of_int m.lock_acquires
  | "lock_transfers" -> float_of_int m.lock_transfers
  | "dcache_misses" -> float_of_int m.dcache_misses
  | "instructions" -> float_of_int m.instructions
  | "requests" -> float_of_int m.requests
  | "p50" -> float_of_int m.p50
  | "p99" -> float_of_int m.p99
  | "p999" -> float_of_int m.p999
  | "lat_digest" -> float_of_int m.lat_digest
  | other -> invalid_arg ("Measure.metric: unknown metric " ^ other)
