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

(** Packed state keys: each semantics appends an injective, decodable
    key of its state to a reused buffer — one byte per int in
    [-1, 253], an escape byte and a native 8-byte word otherwise, and a
    length prefix before every variable-shape component. *)
module Key : sig
  type t = private { mutable buf : Bytes.t; mutable pos : int }
  (** The key is [buf.[0 .. pos-1]]. *)

  val create : unit -> t
  val reset : t -> unit

  val add_row : t -> int array -> unit
  (** Append every int of the row. *)

  val pad : t -> unit
  (** Zero the 8 bytes after [pos] (growing the buffer if needed), so
      the key can be read a word at a time. *)
end

module type SEM = sig
  val name : string

  type state
  (** One mutable machine state: an enumeration allocates one and moves
      it in place. *)

  val create : Lprog.t -> state
  (** The program's initial state. *)

  val pack : state -> Key.t -> unit
  (** Append the state's key: equal keys if and only if structurally
      equal states. *)

  val unpack : state -> Bytes.t -> int -> unit
  (** [unpack st src at] — overwrite [st] with the state whose [pack]ed
      key starts at [src.[at]]. *)

  val is_final : state -> bool

  val regs : state -> int array
  (** The register file, thread-major ([Lprog.regs] per thread) — live,
      not a copy. *)

  val moves : state -> (unit -> unit) -> int
  (** [moves st k] — for each successor, in a fixed order: move [st] to
      it in place, call [k ()], and move it back.  Returns the number
      of successors.  A state with a thread at a release of a lock it
      does not hold (under {!Pc}, once that thread's store buffer has
      drained) is refused with [Failure] before the first move.  If [k]
      raises, [st] is left mid-move. *)
end

module Sc : sig
  include SEM

  val step : state -> int -> (unit -> unit) -> bool
  (** [step st t k] — thread [t] executes its next instruction in
      place, [k ()] runs, and the instruction is undone; [false] (and no
      call) when [t] has finished or waits.  It waits on an unmet
      [Wait_eq], on a lock held elsewhere, and on a release of a lock it
      does not hold — which [moves] refuses with [Failure] instead.
      {!Drf} walks the SC interleavings with it. *)

  val event : state -> int -> History.event option
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
