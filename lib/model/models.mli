(** Operational semantics of the memory models compared in Section IV-E,
    as labelled transition systems over litmus-program states.

    - {!Sc}: Sequential Consistency — one memory, atomic steps.
    - {!Pc}: Processor Consistency, realized as its best-known operational
      instance: TSO-style FIFO store buffers draining into one memory
      (per-writer order = GPO; single memory serializes each location =
      GDO).
    - {!Cc}: Cache Consistency — per-location write logs applied by each
      observer monotonically, at its own pace.
    - {!Slow}: Slow Consistency — per-process copies; updates propagate
      per (writer, location) in order, nothing else is guaranteed.
    - {!Ec}: Entry-Consistency-like — PMC's value-transferring locks and
      fences, with synchronization operations kept in program order.
    - {!Pmc}: the paper's model — Slow reads/writes, acquire/release
      transferring the protected value, fences inserting cross-location
      markers into the update streams, best-effort flush, lazy release
      for writes under the location's lock, {e and} acquire hoisting:
      unfenced acquires of other locations may execute early, the
      relaxation that makes PMC strictly weaker than EC (Sec. IV-E). *)

module type SEM = sig
  val name : string

  type state

  val init : Lprog.t -> state
  val successors : Lprog.t -> state -> state list
  val is_final : Lprog.t -> state -> bool
  val outcome : Lprog.t -> state -> Lprog.outcome
  val key : state -> string
  (** Injective serialization for memoized state-space exploration:
      equal keys if and only if structurally equal states.  Every
      semantics hand-packs its state — fixed-shape components as one
      byte per small int, variable-shape ones length-prefixed — which
      is roughly an order of magnitude cheaper than [Marshal] and
      stable across OCaml versions. *)
end

val clone2 : int array array -> int array array
(** Deep copy of a 2-D state component (shared by the semantics). *)

module Sc : sig
  include SEM

  val step : Lprog.t -> state -> int -> state option
  (** [step p st t] — the state after thread [t] executes its next
      instruction, or [None] when [t] has finished or waits.  It waits on
      an unmet [Wait_eq], on a lock held elsewhere, and on a release of a
      lock it does not hold — which [successors] refuses with [Failure]
      instead.  {!Drf} walks the SC interleavings with it. *)

  val event : Lprog.t -> state -> int -> History.event option
  (** The event thread [t]'s next instruction performs from [st] (none
      for a flush or a finished thread); meaningful when {!step} moves
      [t]. *)
end

module Pc : SEM
module Cc : SEM
module Ec : SEM
module Slow : SEM
module Pmc : SEM

val all : (module SEM) list
