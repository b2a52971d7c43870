(** Lowering of captured traces into the formal model's history language.

    [check] replays an observed run through {!Pmc_model.History.check}
    (the Table-I transition plus the Def. 11/12 read-value semantics), so
    every back-end execution can be mechanically validated
    PMC-consistent — whatever its caches, NoC and locks did, the values
    the program observed must be explainable by the model. *)

type lowering = {
  events : Pmc_model.History.event list;
  locs : int;
      (** distinct model locations: one per (object, word), or per
          (object, byte) for an object the trace accesses byte-wise *)
  init : int -> int;  (** initial value of each location, from pokes *)
  skipped : int;      (** trace events below the model's vocabulary *)
}

val lower : Event.t list -> lowering
(** Location-granular mapping: entry_x/exit_x → acquire/release per
    location, accesses → reads/writes with observed values, fences →
    fences, initialization pokes → the checker's [~init] values.  An
    object accessed byte-wise anywhere in the trace is lowered per byte
    (Sec. IV-A's indivisible unit): its word accesses and pokes become
    four lane events, byte 0 the least significant.  Word-only objects
    keep one location per word.  Probe events (lock, NoC, cache, task,
    fault) are back-end mechanics; they are skipped and counted. *)

val check :
  ?require_locked_writes:bool -> cores:int -> Event.t list ->
  Pmc_model.History.report
