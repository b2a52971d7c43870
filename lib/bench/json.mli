(** Minimal JSON tree, printer and parser for the benchmark reports.

    The repository carries no third-party JSON dependency; benchmark
    reports are small, written and read only by {!Pmc_bench}, so this
    deliberately supports just the subset the harness emits (objects,
    arrays, strings, numbers, booleans, null — ASCII [\u] escapes). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t

val num_to_string : float -> string
(** Integral values below 1e15 in magnitude print in full ([%.0f]);
    every other number prints with six significant digits ([%.6g]). *)

val to_string : t -> string
(** Two-space indented, trailing newline — committed baselines diff
    readably. *)

val to_compact : t -> string
(** One line, no trailing newline and no spaces between tokens — the
    framing unit of {!Pmc_serve}'s newline-delimited wire protocol and
    the canonical form behind its verdict-cache keys. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input, including a number that
    overflows to an infinity (JSON has no text for it). *)

(** {1 Accessors} — [None] on shape mismatch.  Records decode through
    {!Codec} instead. *)

val get_str : string -> t -> string option
val get_list : string -> t -> t list option
