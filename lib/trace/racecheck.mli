(** Online dynamic data-race detection over recorded traces (FastTrack
    style: vector clocks with last-write epochs).

    Happens-before is derived from the synchronization the annotations
    make explicit — entry joins the object's release clock (≺S), exit_x
    publishes it — and a race is reported for two conflicting accesses
    (same object and word, at least one a write, different cores) that
    are unordered by it, provided at least one access happened outside
    any entry/exit scope of its object.  Scoped conflicts are either
    serialized by the object's lock or sanctioned by the model's readable
    set (the Fig. 6 poll pattern), so what is reported is exactly the
    missing-annotation class of bugs the static {!Pmc_compile.Check} pass
    and the litmus-level {!Pmc_model.Drf} checker cannot see.

    Byte accesses are still checked at the granularity of their
    containing word (conservative), although {!Replay} lowers them per
    byte.  Detection is relative to the observed
    interleaving, as with every dynamic detector. *)

type access = {
  core : int;
  time : int;
  seq : int;
  is_write : bool;
  scoped : bool;  (** inside an entry/exit pair of the object *)
  value : int;    (** as the trace carries it: a word's sign-extended *)
}

type race = {
  obj : Event.obj;
  word : int;
  first : access;   (** earlier access in issue order *)
  second : access;
}

val pp_access : Format.formatter -> access -> unit
val pp_race : Format.formatter -> race -> unit

type t

val create : ?max_reports:int -> cores:int -> unit -> t

val feed : t -> Event.t -> unit
(** Feed one event, in issue order.  Non-access, non-annotation events
    are ignored. *)

val races : t -> race list
(** Distinct races detected so far, oldest first.  One report per
    (object, word, core pair, access-kind pair); capped at
    [max_reports]. *)

val race_count : t -> int
(** Total distinct races, including any beyond the report cap. *)

val check : ?max_reports:int -> cores:int -> Event.t list -> race list
(** [check ~cores events] — feed a complete trace and return the races. *)
