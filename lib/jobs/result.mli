(** Typed job results with stable JSON encodings, CLI-identical
    rendering and the documented 0/2/3/4 exit-code contract.

    Every field is deterministic — no host time, no process state — so
    a result is a pure function of its {!Job.t} and serialized results
    can be cached and replayed byte-identically. *)

type litmus_row = {
  program : string;
  model : string;
  outcomes : string list;  (** sorted canonical outcome strings *)
  states : int;
  stuck : int;
}

type check_report = {
  name : string;
  ok : bool;
  errors : string list;
  warnings : string list;
  text : string;
      (** the exact bytes [pmc_check] prints for this program (check
          report + Table-II expansion) *)
}

type bench_sample = {
  id : string;  (** {!Pmc_bench.Spec.case_id} *)
  b_ok : bool;
  deterministic : bool;
  repeats : int;
  metrics : Pmc_bench.Measure.metrics;
      (** architectural metrics only — host seconds are deliberately
          absent: they are the one nondeterministic quantity and would
          break cache-hit byte-identity *)
}

type error_kind =
  | Bad_request     (** unknown app/backend/program/model, parse error *)
  | Budget_exceeded (** a cycle or state budget was exhausted *)
  | Runtime_error   (** a typed {!Pmc_sim.Pmc_error} or unexpected exn *)

type error = { kind : error_kind; detail : string }

type t =
  | Litmus_outcomes of litmus_row list  (** one row per model *)
  | Check_checked of check_report
  | Bench_measured of bench_sample
  | Chaos_soaked of Pmc_apps.Chaos.report
  | Crash_checked of Pmc_apps.Crash.report
      (** one power-cut crash-recovery experiment ({!Pmc_apps.Crash}) *)
  | Error of error

val exit_code : t -> int
(** The pmc_demo convention: 0 success; 2 input/budget/runtime error;
    3 property failure (discipline errors, checksum mismatch, wrong
    result); 4 formal PMC-model inconsistency. *)

val exit_code_all : t list -> int
(** Combine a batch: input errors (2) dominate, then inconsistency (4),
    then property failures (3), else 0. *)

val ok : t -> bool
(** [exit_code t = 0]. *)

val error_kind_name : error_kind -> string

val codec : t Pmc_bench.Codec.t
(** The tag ["kind"], then the result's fields in declaration order;
    verdicts are tagged by ["v"].  A crash report's [cut] and
    [recovery] may be absent (none). *)

val to_json : t -> Pmc_bench.Json.t
(** Canonical (fixed field order); int64 checksums travel as decimal
    strings so no bits are lost to JSON doubles. *)

val of_json : Pmc_bench.Json.t -> t
(** @raise Failure on malformed input, naming the first offending
    field. *)

val pp : Format.formatter -> t -> unit
(** Renders exactly the bytes the corresponding one-shot CLI prints:
    litmus_run's per-program section, pmc_check's report text,
    pmc_chaos run's report — which is what lets CI diff daemon answers
    against the CLIs. *)

val pp_row : Format.formatter -> litmus_row -> unit
(** One litmus row: program, model, outcome set, states and stuck
    count, as [litmus_run] prints it. *)
