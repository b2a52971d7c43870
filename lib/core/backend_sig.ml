(* The contract every memory-architecture back-end implements: the six
   annotations of Section V-A plus one timed read and one timed write,
   whose width (a byte or a word) is an argument.  The application is
   written once against [Api]; swapping the back-end re-targets it to a
   different memory architecture, exactly as Table II prescribes.

   Back-end obligations (the orderings of Table I):
     - [read]/[write] must satisfy ≺ℓ and ≺P (same process, same
       location) — automatic on the in-order simulated cores.
     - [entry_x]/[exit_x] must provide ≺S via the object's lock and make
       the newest version visible to the new holder.
     - [fence] must provide ≺F — a compiler barrier on the in-order
       MicroBlaze, so it usually costs nothing.
     - [flush] is best effort: push the current version towards other
       processes; no ordering guarantee (Section IV-D). *)

module type S = sig
  type t

  val name : string

  val create : Pmc_sim.Machine.t -> t
  val machine : t -> Pmc_sim.Machine.t

  (* Allocate a shared object and place it for this architecture. *)
  val alloc : t -> name:string -> bytes:int -> Shared.t

  val entry_x : t -> Shared.t -> unit
  val exit_x : t -> Shared.t -> unit
  val entry_ro : t -> Shared.t -> unit
  val exit_ro : t -> Shared.t -> unit
  val fence : t -> unit
  val flush : t -> Shared.t -> unit

  (* Timed access of [width] bytes — 1 ("in general, only bytes are
     indivisible", Sec. IV-A) or 4, a whole word — at byte offset [off]
     within the object; a word access is word-aligned.  The value
     travels as a plain [int] — unsigned on reads, low [8 * width] bits
     significant on writes — so the per-access hot path never boxes an
     [int32]; the API surface converts at its edge. *)
  val read : t -> Shared.t -> width:int -> int -> int
  val write : t -> Shared.t -> width:int -> int -> int -> unit

  (* Untimed read of the object's canonical (most recent) version, for
     result collection and tests after the simulation has finished. *)
  val peek_u32 : t -> Shared.t -> int -> int32

  (* Untimed write visible to every core — input-data initialization
     before the simulation starts. *)
  val poke_u32 : t -> Shared.t -> int -> int32 -> unit
end

type backend = B : (module S with type t = 'a) * 'a -> backend
