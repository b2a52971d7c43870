(** The PMC annotation API (Section V-A), independent of the memory
    architecture underneath.

    Applications are written once against this module; the back-end
    chosen at creation re-targets them — "porting applications to
    hardware with another memory model becomes just a compiler setting".

    The API enforces the paper's source discipline at run time: reads and
    writes of shared objects happen inside entry/exit pairs, writes need
    exclusive access, flush is only legal inside an exclusive scope, and
    scopes nest.  Violations raise {!Discipline_error}; [~check:false]
    instances skip the checks (for broken-by-design demonstrations).

    An optional trace hook receives every annotation and access so that
    observed runs can be validated against the formal model
    ({!Pmc_model.History} — see the integration tests). *)

exception Discipline_error of string

type mode = X | Ro
(** Scope kind: exclusive or read-only. *)

type event =
  | Ev_entry of mode * Shared.t
  | Ev_exit of mode * Shared.t
  | Ev_fence
  | Ev_flush of Shared.t
  | Ev_read of Shared.t * int * int32
  | Ev_write of Shared.t * int * int32
  | Ev_read8 of Shared.t * int * int   (** byte read: (object, byte, value) *)
  | Ev_write8 of Shared.t * int * int  (** byte write: (object, byte, value) *)
  | Ev_init of Shared.t * int * int32
      (** untimed initialization write ({!poke}) — establishes the
          location's initial value for model replay *)

type t
(** An annotation API instance: one back-end on one machine. *)

val create : ?check:bool -> Backend_sig.backend -> t
(** Wrap a back-end; [check] (default [true]) enables the runtime
    discipline checker. *)

val of_backend :
  (module Backend_sig.S with type t = 'a) -> 'a -> t
(** Wrap a first-class back-end module directly (used by the back-end
    implementations themselves and the tests). *)

val machine : t -> Pmc_sim.Machine.t
(** The simulated machine underneath. *)

val set_trace : t -> (core:int -> event -> unit) option -> unit
(** Install (or remove, with [None]) the trace hook receiving every
    annotation and access. *)

(** {1 Allocation} *)

val alloc : t -> name:string -> bytes:int -> Shared.t
(** Allocate and place a shared object of [bytes] bytes. *)

val alloc_words : t -> name:string -> words:int -> Shared.t
(** {!alloc} sized in 32-bit words. *)

(** {1 The six annotations of Section V-A} *)

val entry_x : t -> Shared.t -> unit
(** Acquire exclusive access (issues the model's acquire). *)

val exit_x : t -> Shared.t -> unit
(** Give up exclusive access (release); may be lazy, see Table II. *)

val entry_ro : t -> Shared.t -> unit
(** Begin non-exclusive read-only access. *)

val exit_ro : t -> Shared.t -> unit
(** End a read-only scope. *)

val fence : t -> unit
(** ≺F: order this core's operations across locations. *)

val flush : t -> Shared.t -> unit
(** Best-effort: push modifications towards other processes soon.  Only
    legal inside an exclusive scope. *)

(** {1 Accesses} *)

val get : t -> Shared.t -> int -> int32
(** Word read, inside any scope of the object. *)

val set : t -> Shared.t -> int -> int32 -> unit
(** Word write, inside an exclusive scope. *)

val get8 : t -> Shared.t -> int -> int
(** Byte read — the truly indivisible access of Section IV-A. *)

val set8 : t -> Shared.t -> int -> int -> unit
(** Byte write, inside an exclusive scope. *)

val get_int : t -> Shared.t -> int -> int
(** {!get} on the unboxed accessor path: the sign-extended word as a
    plain [int], no allocation (DESIGN.md §13). *)

val set_int : t -> Shared.t -> int -> int -> unit
(** {!set} on the unboxed accessor path. *)

val peek : t -> Shared.t -> int -> int32
(** Untimed read of the canonical version — for result collection after
    the simulation finished. *)

val peek_int : t -> Shared.t -> int -> int
(** {!peek} on the unboxed accessor path. *)

val poke : t -> Shared.t -> int -> int32 -> unit
(** Untimed initialization write, visible on every core. *)

(** {1 Scoped helpers — the ScopeX / ScopeRO of Fig. 10} *)

val with_x : t -> Shared.t -> (unit -> 'a) -> 'a
(** [with_x t o f] brackets [f] with {!entry_x}/{!exit_x} (exit runs on
    exception too). *)

val with_ro : t -> Shared.t -> (unit -> 'a) -> 'a
(** [with_ro t o f] brackets [f] with {!entry_ro}/{!exit_ro}. *)

val poll_until :
  ?max_backoff:int -> t -> Shared.t -> int -> (int32 -> bool) -> int32
(** Spin on a word through read-only scopes until the predicate holds —
    the flag-waiting loop of Fig. 6, with exponential backoff (the
    paper's [sleep()]). *)

val poll_until_int :
  ?max_backoff:int -> t -> Shared.t -> int -> (int -> bool) -> int
(** [poll_until] on the unboxed accessor path: the predicate sees the
    sign-extended word as a plain [int] and no [int32] is allocated per
    poll.  Timed behaviour is identical to [poll_until]. *)
