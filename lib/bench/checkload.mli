(** The check-suite workloads: the model plane's two hot paths —
    incremental history replay and litmus-corpus enumeration — packaged
    so {!Measure} can time them like simulator cases.

    Both are deterministic by construction: the replay trace comes from
    a fixed-seed generator and enumeration explores fixed programs, so
    [work] and [digest] are pure functions of the case; only the
    measured rate is host-dependent. *)

type outcome = {
  work : int;    (** events replayed / distinct states enumerated *)
  ok : bool;     (** the verdict sanity check passed *)
  digest : int;  (** portable FNV-1a digest pinning the verdict content *)
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
