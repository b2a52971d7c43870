(* A benchmark report: the samples of one suite run plus enough header
   to interpret them later (schema version, label, suite, machine
   variant).  Serialized as the BENCH_<label>.json files the CI gate
   diffs. *)

type t = {
  schema : int;
  label : string;
  suite : string;
  unbatched : bool;
  jobs : int;  (* pool width the suite was measured with *)
  samples : Measure.sample list;
}

let make ?(jobs = 1) ~(spec : Spec.t) samples =
  {
    schema = Measure.schema_version;
    label = spec.Spec.label;
    suite = spec.Spec.suite;
    unbatched = spec.Spec.unbatched;
    jobs;
    samples;
  }

(* Cases are measured independently (one fresh machine per run), so the
   suite fans out over the pool; [Pool.map_ordered] keeps the report's
   sample order equal to the spec's case order at any width.  Only
   [host_s] may differ from a sequential run — every architectural
   metric is deterministic per case. *)
let run ?pool (spec : Spec.t) : t =
  let measure =
    Measure.run_case ~unbatched:spec.Spec.unbatched ~warmup:spec.Spec.warmup
      ~repeat:spec.Spec.repeat
  in
  match pool with
  | None -> make ~spec (List.map measure spec.Spec.cases)
  | Some pool ->
      make ~jobs:(Pmc_par.Pool.jobs pool) ~spec
        (Pmc_par.Pool.map_list_ordered pool spec.Spec.cases ~f:measure)

(* Reads schema 5 only: every report in use was written by it. *)
let codec =
  let schema =
    Codec.conv Fun.id
      (fun n ->
        if n = Measure.schema_version then Ok n
        else
          Error
            (Printf.sprintf "%d not supported (this build reads %d)" n
               Measure.schema_version))
      Codec.int
  in
  Codec.(
    obj
      (record
         (fun schema label suite unbatched jobs samples ->
           { schema; label; suite; unbatched; jobs; samples })
         [
           field "schema" schema (fun t -> t.schema);
           field "label" string (fun t -> t.label);
           field "suite" string (fun t -> t.suite);
           field "unbatched" bool (fun t -> t.unbatched);
           field "jobs" int (fun t -> t.jobs);
           field "results" (list Measure.sample_codec) (fun t -> t.samples);
         ]))

let to_json = Codec.encode codec
let of_json = Codec.decode_exn ~what:"Pmc_bench.Report" codec

let save path (t : t) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (to_json t)))

let load path : t =
  let ic = open_in path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.parse content)

let pp ppf (t : t) =
  Fmt.pf ppf "label=%s suite=%s%s (%d samples)@." t.label t.suite
    (if t.unbatched then " [unbatched]" else "")
    (List.length t.samples);
  List.iter
    (fun (s : Measure.sample) ->
      let m = s.Measure.metrics in
      Fmt.pf ppf
        "  %-26s cycles=%-9d flits=%-8d flushes=%-6d handovers=%-5d \
         rate=%-9s alloc=%-9s %s@."
        (Spec.case_id s.Measure.case)
        m.Measure.cycles m.Measure.noc_flits m.Measure.flushes
        m.Measure.lock_transfers
        (if s.Measure.host_cycles_per_s > 0.0 then
           Printf.sprintf "%.2gc/s" s.Measure.host_cycles_per_s
         else "-")
        (* minor-heap words per run: the zero-allocation work shows up
           directly in this column *)
        (Printf.sprintf "%.2gw" s.Measure.minor_words)
        (if not s.Measure.ok then "CHECKSUM MISMATCH"
         else if not s.Measure.deterministic then "NONDETERMINISTIC"
         else "ok");
      (* served-traffic cases report their request-latency tail too *)
      if m.Measure.requests > 0 then
        Fmt.pf ppf
          "  %-26s   %d req, %.3f req/kcycle, lat p50=%d p99=%d p999=%d@."
          "" m.Measure.requests m.Measure.throughput m.Measure.p50
          m.Measure.p99 m.Measure.p999)
    t.samples
