(** Data-race-freedom analysis and the observable SC-simulation property
    of Section IV-E ("able to simulate SC for data-race free
    programs"). *)

type access = { proc : int; loc : int; is_write : bool; op_id : int }
type race = { loc : int; a : access; b : access }

val pp_race : Format.formatter -> race -> unit

exception Too_many_traces of int
(** The SC walk reached more than this many complete traces before it
    could give a verdict. *)

val find_race : ?limit:int -> Lprog.t -> race option
(** Walk every SC trace ({!Models.Sc.step}, depth first) and look for
    two conflicting accesses left unordered by the PMC execution order
    built from that trace; the first such pair, or [None] when every
    trace is race-free.  Raises {!Too_many_traces} when the program has
    more than [limit] traces (default 200000) and none of the walked
    ones races. *)

val is_drf : ?limit:int -> Lprog.t -> bool
(** [find_race] found none; raises {!Too_many_traces} as it does. *)

val sc_equivalent : ?limit:int -> Lprog.t -> bool
(** The outcome set under the PMC operational semantics equals the outcome
    set under SC — the paper's claim, checkable for DRF programs. *)
