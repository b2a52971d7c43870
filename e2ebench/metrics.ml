(* The metric catalogue, in BENCHMARK.json order, and the result line.
   The benchmark's tests check that BENCHMARK.json lists exactly these
   names and units. *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("peak_rss_mb", "MB");
    ("sim_cycles", "cycles"); ("sim_cycles_per_s", "cycles/s") ]

let backends = [ "seqcst"; "nocc"; "swcc"; "dsm"; "spm"; "farmem" ]
let job_kinds = [ "litmus"; "check"; "bench"; "chaos" ]

let per_layer =
  [ ("engine.host_s", "s"); ("engine.minor_words", "words");
    ("engine.host_ns_per_cycle", "ns"); ("engine.sim_cycles", "cycles") ]
  @ List.concat_map
      (fun b ->
        [ ("backend." ^ b ^ ".host_s", "s");
          ("backend." ^ b ^ ".sim_cycles", "cycles") ])
      backends
  @ [ ("stats.busy", "cycles"); ("stats.private_read_stall", "cycles");
      ("stats.shared_read_stall", "cycles"); ("stats.write_stall", "cycles");
      ("stats.icache_stall", "cycles"); ("stats.lock_stall", "cycles");
      ("stats.flush_overhead", "cycles");
      ("machine.dcache_hits", "count"); ("machine.dcache_misses", "count");
      ("machine.icache_misses", "count"); ("machine.flushes", "count");
      ("lock.acquires", "count"); ("lock.transfers", "count");
      ("noc.writes", "count"); ("noc.flits", "count");
      ("noc.posts", "count"); ("noc.bytes", "bytes");
      ("noc.transit_cycles", "cycles");
      ("probe.maint_lines_touched", "count");
      ("probe.maint_lines_written_back", "count");
      ("api.events", "count");
      ("service.requests", "count"); ("service.req_p50_cycles", "cycles");
      ("service.req_p999_cycles", "cycles");
      ("trace.record_s", "s"); ("trace.events", "count");
      ("trace.dropped", "count");
      ("replay.lower_s", "s"); ("replay.locs_max", "count");
      ("replay.skipped", "count");
      ("history.few.check_s", "s"); ("history.many.check_s", "s");
      ("history.few.events", "count"); ("history.many.events", "count");
      ("history.few.locs_max", "count"); ("history.many.locs_max", "count");
      ("history.minor_words", "words");
      ("crash.experiment_s", "s"); ("crash.cuts", "count");
      ("chaos.run_s", "s"); ("fault.injected", "count");
      ("litmus.enumerate_s", "s"); ("litmus.states", "count");
      ("litmus.stuck", "count"); ("litmus.minor_words", "words") ]
  @ List.map (fun k -> ("jobs." ^ k ^ ".run_s", "s")) job_kinds
  @ [ ("protocol.encode_s", "s"); ("protocol.decode_s", "s");
      ("serve.overhead_s", "s"); ("serve.hit_p50_ms", "ms");
      ("serve.miss_p50_ms", "ms"); ("serve.p95_ms", "ms");
      ("serve.cache_hits", "count"); ("serve.cache_misses", "count");
      ("serve.hit_ratio", "ratio"); ("serve.rejected", "count");
      ("serve.queue_depth_max", "count");
      ("tracing.overhead_s", "s") ]

(* A value that is not finite (a rate over a unit that failed) prints as
   0, keeping the line valid JSON. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of a run: exactly the keys BENCHMARK.json's format names,
   one entry per metric of [catalogue] (absent values read 0). *)
let result_line ~(tally : Tally.t) ~catalogue values =
  let metric (name, unit) =
    let v = Option.value ~default:0. (List.assoc_opt name values) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.map metric catalogue))
