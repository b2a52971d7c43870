(** Job execution: the pure function from (job, budget) to result.

    [run] never raises and touches no global state beyond what the
    simulator resets per run (DESIGN.md §11), so it may execute on any
    domain of a {!Pmc_par.Pool} and its results are reproducible bit
    for bit — the property the {!Pmc_serve} verdict cache relies on. *)

type budget = {
  max_cycles : int option;
      (** per-request simulated-cycle budget: tightens the livelock
          watchdog of bench and chaos runs *)
  max_states : int option;
      (** per-request state-space budget for litmus enumeration *)
}

val no_budget : budget

val tighter : budget -> budget -> budget
(** Pointwise minimum — how a server-wide budget combines with a
    per-request one. *)

val budget_codec : budget Pmc_bench.Codec.t
(** Both bounds may be absent or [null] (no bound). *)

val budget_to_json : budget -> Pmc_bench.Json.t

val run : ?budget:budget -> Job.t -> Result.t
(** Execute one job.  Total: unknown names, parse failures, budget
    overruns and runtime errors all come back as {!Result.Error}. *)

val run_all :
  ?budget:budget -> ?pool:Pmc_par.Pool.t -> Job.t list -> Result.t list
(** Map {!run} over a batch, fanning out over [pool] when given;
    results come back in input order at any pool width. *)

(** {1 Name resolution} — shared by the CLIs and the daemon *)

val standard_programs : (string * Pmc_model.Lprog.t) list
(** The standard litmus programs keyed by CLI-friendly slug
    (["mp_plain"], ["sb"], ...). *)

val program_names : string list

val find_program : string -> Pmc_model.Lprog.t option
(** By slug or by full descriptive name. *)

val model_names : string list
(** Short model aliases: ["sc"; "pc"; "cc"; "ec"; "slow"; "pmc"]. *)

val find_model : string -> (module Pmc_model.Models.SEM) option
(** By short alias or full name, case-insensitively. *)
