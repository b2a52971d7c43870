(** A benchmark report: the samples of one suite run plus a header
    (schema version, label, suite, machine variant) — the
    [BENCH_<label>.json] files the CI regression gate diffs. *)

type t = {
  schema : int;
  label : string;
  suite : string;
  unbatched : bool;
  jobs : int;
      (** Pool width the suite was measured with.  Architectural metrics
          are identical at any width; only [host_s] is affected. *)
  samples : Measure.sample list;
}

val make : ?jobs:int -> spec:Spec.t -> Measure.sample list -> t

val run : ?pool:Pmc_par.Pool.t -> Spec.t -> t
(** Measure every case of the suite.  With a pool, cases fan out over
    its domains; the sample order (and every metric except [host_s]) is
    identical to the sequential run. *)

val to_json : t -> Json.t

val of_json : Json.t -> t
(** Reads schema 5 ({!Measure.schema_version}) only; every header and
    sample field is required.
    @raise Failure on malformed input or any other schema version. *)

val save : string -> t -> unit
val load : string -> t

val pp : Format.formatter -> t -> unit
