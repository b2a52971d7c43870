(** The check-suite workloads: the model plane's two hot paths —
    incremental history replay and litmus-corpus enumeration — and the
    crash checker, packaged so {!Measure} can time them like simulator
    cases.

    All are deterministic by construction: the replay trace comes from a
    fixed-seed generator, enumeration explores fixed programs and the
    crash sweep draws its cuts from fixed seeds, so [work] and [digest]
    are pure functions of the case; only the measured rate is
    host-dependent. *)

type outcome = {
  work : int;    (** events replayed / distinct states enumerated *)
  ok : bool;     (** the verdict sanity check passed *)
  digest : int;
      (** portable FNV-1a digest pinning the verdict content, masked to
          49 bits so a report carries it exactly *)
}

val synth_events :
  procs:int -> locs:int -> events:int -> Pmc_model.History.event list
(** A PMC-consistent trace of locked acquire/write/read/release quads
    from a fixed-seed generator — a pure function of its arguments. *)

val replay : procs:int -> locs:int -> events:int -> outcome
(** Replay a synthetic trace over [locs] locations through
    {!Pmc_model.History.check}; [ok] iff the (consistent) trace produced
    no violations. *)

val enum : unit -> outcome
(** Enumerate every standard litmus program under every semantics;
    [work] totals the distinct states, [digest] pins every cell's
    state count, stuck count and outcome set. *)

val crash : app:string -> cores:int -> scale:int -> outcome
(** A one-pass {!Pmc_apps.Crash.sweep} of [app] on the far-memory tier
    over seeds 1-8; [work] counts the cuts judged, [ok] requires every
    verdict acceptable, [digest] pins each report's verdict, cut, wall
    and recorded events. *)
