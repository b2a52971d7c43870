(** Benchmark suite descriptions: which (app, back-end, topology, cores,
    scale) combinations to run and with what measurement discipline. *)

(** What a case exercises: a simulator run, one of the model plane's
    two hot paths, or the crash checker.  Check cases record their
    deterministic work count in [metrics.cycles] (events replayed /
    states enumerated / cuts judged) and their
    throughput in [host_cycles_per_s], so the existing rate gate applies
    unchanged. *)
type work =
  | Sim
  | Check_replay
      (** {!Pmc_model.History.check} over a synthetic [scale]-event
          trace with [cores] processes, over {!replay_locs} locations *)
  | Check_enum
      (** {!Pmc_model.Litmus.enumerate} over the standard corpus under
          every semantics *)
  | Check_crash
      (** {!Pmc_apps.Crash.sweep} of [app] on the far-memory tier over
          eight fixed seeds, every cut judged from one recorded run *)

type case = {
  app : string;       (** registry name, see {!Pmc_apps.Registry} *)
  backend : Pmc.Backends.kind;
  topology : Pmc_sim.Topology.t;  (** fabric the case runs on *)
  cores : int;
  scale : int;
  work : work;
}

type t = {
  label : string;     (** free-form tag recorded in the report *)
  suite : string;     (** suite name the cases came from *)
  unbatched : bool;
      (** run on [{ cfg with batched = false }] — the pre-batching cost
          model — instead of the default machine *)
  warmup : int;       (** discarded runs before timing *)
  repeat : int;       (** timed runs; host time is outlier-trimmed *)
  cases : case list;
}

val case_id : case -> string
(** Stable identifier used to join baseline and current reports in
    {!Compare}: ["app/backend/cN/sM"] on {!Pmc_sim.Topology.Star} (the
    historic form, so pre-topology baselines still join),
    ["app/backend/topology/cN/sM"] on routed fabrics, and
    ["check/app/cN/sM"] (["check/replay/cN/sM"],
    ["check/replay-wide/cN/sM"]), ["check/enum/app/sM"] and
    ["check/crash/app/sM"] for check cases. *)

val smoke_cases : case list
(** The CI gate: three kernels with distinct traffic shapes on every
    software coherency back-end at the 32-core geometry, plus kv_store
    on swcc on the 1024-tile [hier:32x32] fabric. *)

val full_cases : case list
(** Every registered application at the 32-core geometry. *)

val scale_cases : case list
(** Served-traffic apps on the big routed fabrics: kv_store and mailbox
    on a 256-tile mesh, kv_store on a 1024-tile hierarchy, all five
    back-ends. *)

val check_cases : case list
(** The model-plane throughput gate: incremental history replay in two
    geometries (200k synthetic events over 8 locations, and 20k over
    512 locations, both with 4 processes), litmus-corpus enumeration
    (every standard program under every semantics) and a one-pass crash
    sweep (mailbox at scale 4 on 4 cores, eight seeded cuts). *)

val replay_locs : case -> int
(** The location count a {!Check_replay} case's trace spreads over,
    named by its [app]: ["replay-wide"] is 512 locations, anything else
    (["replay"]) 2 per process. *)

val suite :
  ?label:string ->
  ?unbatched:bool ->
  ?warmup:int ->
  ?repeat:int ->
  string ->
  t option
(** [suite name] builds a suite by name ([smoke], [full], [scale],
    [check], or [ci] — smoke plus check, the committed-baseline set);
    [None] for unknown names. *)

val suite_names : string list
