(** Exhaustive outcome enumeration of litmus programs under a model's
    operational semantics, and the model-comparison predicates of
    Section IV-E. *)

type result = {
  program : Lprog.t;
  model : string;
  outcomes : Lprog.Outcome_set.t;
  states_explored : int;
  stuck_states : int;
      (** non-final states with no successor — deadlocks/livelocks, e.g.
          a hoisted acquire starving the lock holder's waiter *)
}

exception State_space_too_large of int
(** More than this many distinct states: the [limit] that was passed. *)

val enumerate :
  ?limit:int -> (module Models.SEM) -> Lprog.t -> result
(** Breadth-first exploration of one mutable state moved in place
    ([Models.SEM.moves]), with memoization on packed state keys
    ([Models.SEM.pack]); raises {!State_space_too_large} [limit] past
    [limit] distinct states (default 2M), and [Failure] when a visited
    state releases a lock its thread does not hold.  One enumeration
    runs on one domain; {!enumerate_matrix} fans independent
    enumerations out over a pool. *)

val outcomes_list : result -> string list
(** The outcome set as sorted strings ({!Lprog.outcome_to_string}). *)

val allows : result -> string -> bool
(** Is this outcome string in the enumerated set? *)

val subset_of : result -> result -> bool
(** [subset_of r1 r2] — model 1 is at least as strong as model 2 on this
    program: every outcome of r1 is an outcome of r2. *)

val enumerate_matrix :
  ?limit:int -> ?pool:Pmc_par.Pool.t -> ?models:(module Models.SEM) list ->
  Lprog.t list -> result list list
(** Enumerate every given program under every model (default
    {!Models.all}), one row per program in [models] order.  Each
    enumeration is independent, so with a [pool] the matrix fans out
    over its domains; the results — outcome sets, state counts — are
    identical to the sequential run at any width. *)

val strength_chain_holds :
  ?limit:int -> ?pool:Pmc_par.Pool.t -> Lprog.t list -> bool
(** outcomes(SC) ⊆ outcomes(PC) ⊆ outcomes(CC) ⊆ outcomes(Slow) on every
    given program. *)
