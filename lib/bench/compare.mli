(** Diff two benchmark reports against per-metric tolerances — the
    regression gate behind [pmc_bench compare].

    Cases are joined on {!Spec.case_id}.  A metric whose fractional
    change exceeds its tolerance is a regression; checksum failures,
    nondeterministic samples and cases missing from the current report
    also fail the gate.  New cases are reported but pass (nothing to
    regress against). *)

type verdict = Within | Improved | Regressed

type row = {
  case_id : string;
  metric : string;
  base : float;
  cur : float;
  delta : float;  (** fractional change; [infinity] when base is 0 *)
  tol : float;
  verdict : verdict;
}

type host_row = {
  host_case_id : string;
  host_base : float;  (** host seconds per run in the baseline report *)
  host_cur : float;
  speedup : float;    (** [host_base /. host_cur]; > 1 = current faster *)
  rate_base : float;  (** simulated cycles per host second, baseline *)
  rate_cur : float;
  rate_ok : bool;
      (** [rate_cur >= host_rate_floor *. rate_base], or true when
          either rate is unusable (zero host time) *)
}

type outcome = {
  rows : row list;
  hosts : host_row list;
      (** Host speed of cases present in both reports.  Wall time and
          speedup are informational; the cycles-per-host-second rate is
          gated against {!host_rate_floor}. *)
  missing : string list;
  added : string list;
  broken : string list;
}

val host_band : float
(** Fractional band around 1.0 inside which a speedup prints as noise. *)

val host_rate_floor : float
(** A case fails the gate when its host-speed rate drops below this
    fraction of the baseline rate (0.6) — loose enough to absorb
    machine noise, tight enough to catch a hot path regressing by an
    allocation or a fiber switch per event. *)

val default_tolerances : (string * float) list
(** [cycles]/[noc_flits]/[flushes] at 2%, [lock_transfers] at 10% —
    drift absorption for benign scheduling shifts, not measurement
    noise (the simulator is deterministic). *)

val run :
  ?tolerances:(string * float) list ->
  ?gate_rate:bool ->
  ?subset:bool ->
  base:Report.t ->
  cur:Report.t ->
  unit ->
  outcome
(** [gate_rate] (default [true]) arms the host-speed rate gate.  Pass
    [false] when the two reports are arms of the same run sharing the
    host — the [--jobs] equality gates — where relative host speed
    carries no signal (host time is never part of the metric gate
    either way).

    [subset] (default [false]) accepts a current report that ran only a
    sub-suite of the baseline: baseline cases absent from it are not
    counted missing.  This lets one committed baseline (the [ci] suite)
    gate the [smoke] and [check] suites separately. *)

val regressions : outcome -> row list

val rate_failures : outcome -> host_row list
(** Cases whose host-speed rate fell through the floor. *)

val ok : outcome -> bool

val pp : Format.formatter -> outcome -> unit

val parse_tolerance_overrides : string -> (string * float) list
(** Parse ["cycles=0.05,noc_flits=0.1"] into {!default_tolerances} with
    the named entries replaced.
    @raise Invalid_argument on unknown metrics or bad values. *)
