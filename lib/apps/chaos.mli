(** Chaos soak harness.

    Runs registered applications under seeded fault schedules
    ({!Pmc_sim.Config.chaos}) and holds them to a hard contract: a run
    may complete with the right answer, or fail with a typed error —
    but it must never finish with a silently wrong answer or a trace
    the PMC model cannot explain.  The fault plane is deterministic, so
    every verdict is reproducible from
    (app, backend, cores, scale, seed, intensity). *)

type verdict =
  | Completed
      (** Checksum matched the sequential reference; when the trace was
          complete, the model replay also found the run PMC-consistent. *)
  | Typed_error of string
      (** The run died with a typed, attributable error
          ({!Pmc_sim.Pmc_error.Error}, watchdog, deadlock) — acceptable
          under injected faults. *)
  | Wrong_result of { checksum : int64; reference : int64 }
      (** Silent wrong answer — always a harness failure. *)
  | Inconsistent of int
      (** The model replay found this many violations — always a
          harness failure. *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  intensity : float;
  verdict : verdict;
  wall : int;
  faults : Pmc_sim.Fault.counts;  (** snapshot of the run's counters *)
  events : int;                   (** trace events captured *)
  dropped : int;                  (** trace events lost to ring overflow *)
  replayed : bool;                (** model replay ran (complete trace) *)
}

val acceptable : verdict -> bool
(** [Completed] and [Typed_error] are acceptable; [Wrong_result] and
    [Inconsistent] are not. *)

val total_injected : Pmc_sim.Fault.counts -> int
(** Faults actually injected (drops, corruptions, delays, SDRAM errors,
    stalls, power cuts) — protocol reactions (retries, relays) not
    included. *)

val default_replay_budget : int
(** Captured-event count above which the model replay is skipped
    (currently 100000).  The incremental {!Pmc_model.History.check}
    replays events in near-constant time each, so at the default budget
    a replay stays well under a second. *)

val run_one :
  ?intensity:float -> ?model_check:bool -> ?replay_budget:int ->
  ?capacity:int -> ?max_cycles:int -> ?topology:Pmc_sim.Topology.t ->
  Runner.app -> backend:Pmc.Backends.kind -> cores:int -> scale:int ->
  seed:int -> report
(** One traced run under [Config.chaos ~intensity ~seed].  The model
    replay runs only when [model_check] (default [true]), the trace ring
    never overflowed, and the trace holds at most [replay_budget] events
    (default {!default_replay_budget}); [capacity] sizes the per-core
    trace rings; [max_cycles] tightens the livelock watchdog to a
    per-request cycle budget (a budget overrun surfaces as a
    [Typed_error] watchdog verdict); [topology] (default
    {!Pmc_sim.Topology.Star}) selects the fabric — on routed fabrics the
    plane draws one outcome per physical link of each route (by-hop
    fault addressing, {!Pmc_sim.Fault.route_outcome}). *)

type soak = {
  reports : report list;  (** in run order *)
  total : int;
  completed : int;
  typed_errors : int;
  failed : int;           (** wrong results + inconsistent replays *)
  injected : int;         (** faults injected across all runs *)
}

val ok : soak -> bool
(** No unacceptable verdicts. *)

val summarize : report list -> soak
(** The verdict totals of a report list, in run order.  A soak is a
    batch of chaos jobs through [Pmc_jobs.Run.run_all ~pool], as
    [pmc_chaos soak] runs it, summarized here. *)

type identity = { identical : bool; detail : string }

val zero_cost_identity :
  Runner.app -> backend:Pmc.Backends.kind -> cores:int -> scale:int ->
  seed:int -> identity
(** The bit-identical-when-off invariant:
    [Config.no_faults (Config.chaos ~seed cfg)] must reproduce the
    never-armed run exactly — same wall clock, same checksum, same
    per-category cycle accounts. *)

val soak_counts : soak -> Pmc_sim.Fault.counts
(** Aggregate fault counters across every report of the soak. *)

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val pp_counts : Format.formatter -> Pmc_sim.Fault.counts -> unit

val pp_tag_summary : Format.formatter -> Pmc_sim.Fault.counts -> unit
(** One line of per-tag hits/draws pairs (noc, sdram, stall, power-cut)
    — the soak's "did tag X actually fire?" summary. *)

val pp_report : Format.formatter -> report -> unit
val pp_soak : Format.formatter -> soak -> unit
