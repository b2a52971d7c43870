(** Run one benchmark case and distil the simulator's counters into
    report metrics.

    The simulator is deterministic, so the architectural metrics are
    exact; the harness runs each case [repeat] times and {e asserts}
    repeatability ({!sample.deterministic}) rather than averaging it
    away.  Only host time is noisy — it is outlier-trimmed (drop min and
    max when at least three repeats ran) and averaged. *)

type metrics = {
  cycles : int;          (** engine wall time of the whole run *)
  noc_flits : int;       (** header + payload flits injected into the NoC *)
  noc_writes : int;      (** posted remote writes *)
  flushes : int;         (** cache flush/invalidate range operations *)
  lock_acquires : int;
  lock_transfers : int;  (** inter-tile lock handovers *)
  dcache_misses : int;
  instructions : int;
  utilization : float;   (** busy fraction of summed core time (Fig. 8) *)
  requests : int;
      (** served requests; [0] marks an app that records none *)
  p50 : int;             (** exact request-latency percentiles, in cycles *)
  p99 : int;
  p999 : int;
  lat_digest : int;
      (** splitmix64 digest of the per-request latency stream — pins
          every individual latency, gated exactly by [scale-smoke] *)
  throughput : float;    (** requests per 1000 simulated cycles *)
}

type sample = {
  case : Spec.case;
  ok : bool;             (** checksum matched the sequential reference *)
  deterministic : bool;  (** metrics identical across all repeats *)
  repeats : int;
  metrics : metrics;
  host_s : float;        (** trimmed-mean host seconds per run *)
  host_cycles_per_s : float;
      (** simulated cycles per host second — the gated host-speed
          metric *)
  minor_words : float;
      (** trimmed-mean minor-heap words allocated per run *)
}

exception Unknown_app of string

val run_case :
  ?max_cycles:int ->
  unbatched:bool -> warmup:int -> repeat:int -> Spec.case -> sample
(** Simulator cases run the registered application; check cases
    ({!Spec.work}) time the corresponding {!Checkload} workload with
    the same warmup/repeat/trim discipline, recording the work count in
    [metrics.cycles] and work-per-host-second in [host_cycles_per_s].
    [max_cycles] tightens the simulator's livelock watchdog to a
    per-request cycle budget (it can only lower the config's horizon) —
    the run raises {!Pmc_sim.Engine.Watchdog} past it.
    @raise Unknown_app when a simulator case names no registered
    application. *)

val metrics_of_result : Pmc_apps.Runner.result -> metrics
(** The report metrics of one simulator run. *)

val trimmed_mean : float list -> float

val schema_version : int
(** 5 — the only schema written and read. *)

val metrics_codec : metrics Codec.t
(** The fifteen metric fields in declaration order — the one
    declaration behind {!metrics_to_json}, {!metrics_of_json},
    {!metric_names} and {!metric}, also nested in the
    [Pmc_jobs.Result] bench result. *)

val sample_codec : sample Codec.t
(** The case (app, work, back-end, topology, cores, scale), then the
    sample's own fields. *)

val metrics_to_json : metrics -> Json.t
(** Canonical: the fifteen fields in declaration order.  Shared by the
    bench report and the [Pmc_jobs.Result] bench result. *)

val metrics_of_json : Json.t -> metrics
(** Every field required.  @raise Failure on malformed input. *)

val sample_to_json : sample -> Json.t
val sample_of_json : Json.t -> sample
(** Every schema-5 field required.  @raise Failure on malformed
    input. *)

val metric_names : string list
(** The numeric metrics a {!Compare} run can gate on: the integer
    fields of {!metrics_codec}, in wire order. *)

val metric : metrics -> string -> float
(** @raise Invalid_argument on names outside {!metric_names}. *)
