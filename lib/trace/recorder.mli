(** Bounded trace recording.

    One bounded ring buffer per core: tracing never grows without bound,
    a hot core cannot evict another core's history, and overflow is
    reported ({!dropped}) instead of silently losing data.  A ring starts
    small and doubles up to its capacity, so a short run costs what it
    records.  [attach] claims both the {!Pmc.Api} trace hook and the
    simulator's {!Pmc_sim.Probe} sink; at most one recorder should be
    attached to a machine at a time. *)

(** One core's ring: keeps the newest [capacity] events pushed, counting
    the overwritten ones. *)
module Ring : sig
  type t

  val create : int -> t
  (** An empty ring of the given capacity, allocated small and doubled
      on demand up to it.  @raise Invalid_argument unless positive. *)

  val push : t -> Event.t -> unit
  (** Append; at capacity the oldest event is overwritten and counted. *)

  val to_list : t -> Event.t list
  (** Surviving events, oldest first. *)

  val recorded : t -> int
  val dropped : t -> int
end

type t

val default_capacity : int
(** Per-core ring capacity when not specified (65536 events). *)

val attach : ?capacity:int -> Pmc.Api.t -> t
(** Start recording every annotation, access, lock, NoC and cache event of
    the given runtime instance. *)

val detach : t -> unit
(** Stop recording and release both hooks. *)

val api : t -> Pmc.Api.t
(** The runtime instance this recorder is attached to. *)

val cores : t -> int

val recorded : t -> int
(** Events currently held across all rings. *)

val dropped : t -> core:int -> int
(** Events overwritten on [core]'s ring since [attach]. *)

val pushed : t -> core:int -> int
(** Events emitted on [core]'s ring since [attach], kept or dropped. *)

val dropped_total : t -> int

val events : t -> Event.t list
(** The merged timeline in emission order (= issue order on the
    deterministic engine).  Oldest surviving event first. *)
