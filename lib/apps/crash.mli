(** Crash-consistency checker for the far-memory tier.

    One experiment cuts power to an application on the [farmem] back-end
    at a seed-derived cycle, restores the durable image the cut left
    behind into a fresh device, replays recovery
    ({!Pmc_sim.Farmem.recover}), and then requires

    - {b no torn object}: every shared object's recovered payload equals
      the state after its k-th publication (k = the object's durable
      publication count) — an [exit_x]/[flush] is fully visible or fully
      absent, never a byte mix; and
    - {b a PMC-consistent durable prefix}: the committed prefix of the
      recorded trace replays clean through {!Pmc_model.History}.

    Every cut of an app is judged from one recorded run
    ({!judge_cuts}).  The fault plane is deterministic: every verdict is
    reproducible from (app, backend, cores, scale, seed, window, log)
    alone, which is what lets the chaos-crash job kind cache
    verdicts. *)

type obj_check = {
  obj_name : string;
  words : int;
  committed : int;   (** durable publication count k (recovered media) *)
  published : int;   (** publication events recorded in the trace *)
  in_flight : bool;  (** k = published + 1: commit durable, event unsent *)
  torn_words : int;  (** payload words differing from publication k *)
}

type verdict =
  | Completed
      (** The cut landed past the wall; the full-run checks were clean. *)
  | Recovered
      (** The cut fired; no torn object and the durable prefix is
          PMC-consistent. *)
  | Torn of { objects : int; words : int }
      (** Some object's recovered payload mixes two publications. *)
  | Prefix_inconsistent of int
      (** Model violations found in the durable prefix. *)
  | Check_error of string
      (** The experiment itself failed (typed error before the cut,
          trace overflow, wrong backend, ...). *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  window : int;      (** cut window the schedule was drawn from *)
  cut : int option;  (** cycle the cut fired at, [None] if it never did *)
  log : bool;        (** redo log armed ({!Pmc_sim.Config.t.farmem_log}) *)
  verdict : verdict;
  wall : int;
  objects : obj_check list;
  recovery : Pmc_sim.Farmem.recovery option;
  events : int;
  dropped : int;
  replayed : bool;   (** the durable-prefix model replay ran *)
}

val acceptable : verdict -> bool
(** [Completed] and [Recovered] pass; everything else fails. *)

val default_replay_budget : int
(** Prefix length above which the model replay is skipped (500000) —
    wide enough that a durable-prefix replay is effectively never
    skipped at crash-experiment geometry. *)

val judge :
  ?replay_budget:int -> ?model_check:bool -> report ->
  trace:Pmc_trace.Event.t list ->
  durable:(unit -> Pmc_sim.Farmem.t * (string * int * int) list) option ->
  report
(** Judge one crash state.  [base] carries the experiment's identity and
    what the run left — [cut], [wall], [events], [dropped]; its verdict
    fields are replaced.  [trace] is the recorded trace up to the cut
    (ending in the [Power_cut] event when the cut fired).  [durable]
    restores the durable image into a fresh device, not yet recovered,
    and returns it with the crashed device's allocation directory
    ({!Pmc_sim.Farmem.allocs}); [None] when the back-end never created a
    far-memory tier.  A trace that dropped events, or a missing tier, is
    a [Check_error]. *)

val judge_cuts :
  ?log:bool -> ?capacity:int -> ?replay_budget:int -> ?model_check:bool ->
  ?topology:Pmc_sim.Topology.t -> Runner.app -> backend:Pmc.Backends.kind ->
  cores:int -> scale:int -> window:int -> (int * int) list -> report list
(** [judge_cuts app ... ~window cuts] judges every [(seed, cycle)] cut
    of [cuts], in order, from one recorded run: a marker at each
    distinct cycle records what a run cut there would have left (ring
    occupancy, wall, sparse durable image), and the last marker stops
    the run.  Each report equals that of a run from cycle 0 whose own
    cut closure fires at [cycle]; [seed] and [window] only label it.
    [capacity] (default {!Pmc_trace.Recorder.default_capacity}) is the
    per-core ring such a run records into — a cut whose prefix
    overflows it is a [Check_error], as it is there. *)

val crash_one :
  ?log:bool -> ?window:int -> ?capacity:int -> ?replay_budget:int ->
  ?model_check:bool -> ?topology:Pmc_sim.Topology.t -> Runner.app ->
  backend:Pmc.Backends.kind -> cores:int -> scale:int -> seed:int -> report
(** One crash experiment: {!judge_cuts} at the seed's cut cycle
    ({!Pmc_sim.Fault.power_cut_cycle}).  [log] (default [true]) arms the
    redo log — [false] selects the deliberately tearable word-by-word
    publication the checker must catch.  [window] bounds the cut cycle;
    when absent it is learned from a fault-free twin run's wall clock
    (the crash config leaves the access-plane fault path disarmed, so
    the pre-cut timeline is exactly the fault-free timeline). *)

type sweep = {
  reports : report list;  (** in run order *)
  total : int;
  cuts : int;             (** experiments whose cut actually fired *)
  recovered : int;
  completed : int;
  torn : int;
  inconsistent : int;
  errors : int;
}

val summarize : report list -> sweep
(** Verdict totals of a report list — what {!sweep} returns; exposed
    so job-oriented callers ({!Pmc_jobs}) summarize identically. *)

val ok : sweep -> bool
(** No torn objects, no inconsistent prefixes, no experiment errors. *)

val sweep :
  ?log:bool -> ?capacity:int -> ?replay_budget:int -> ?model_check:bool ->
  ?topology:Pmc_sim.Topology.t -> apps:Runner.app list ->
  backend:Pmc.Backends.kind -> cores:int -> scale:int -> seeds:int list ->
  unit -> sweep
(** Every app × every seed, in that order.  The cut window is learned
    once per app from its fault-free twin, so all seeds of an app share
    one deterministic window, and one {!judge_cuts} run judges them
    all. *)

val verdict_name : verdict -> string
val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit
val pp_sweep : Format.formatter -> sweep -> unit
