(** The pmc_serve wire protocol: newline-delimited JSON, one request or
    response object per line over a Unix-domain socket.

    Encodings are canonical (fixed field order, compact printing via
    {!Pmc_bench.Json.to_compact}), and responses embed
    {!Pmc_jobs.Result} in the same canonical form the verdict cache
    stores — a cache hit is byte-identical to a fresh run all the way
    down the wire. *)

type request =
  | Submit of { job : Pmc_jobs.Job.t; budget : Pmc_jobs.Run.budget; wait : bool }
      (** [wait]: hold the reply until the job completes and answer
          with the result itself instead of a ticket *)
  | Status of { id : int }
  | Result_of of { id : int; wait : bool }
  | Stats
  | Shutdown

type stats = {
  width : int;        (** pool width the daemon multiplexes onto *)
  queue_depth : int;  (** accepted jobs not yet finished *)
  running : int;
  submitted : int;
  completed : int;
  rejected : int;     (** admission-control rejections *)
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  draining : bool;
}

type response =
  | Submitted of { id : int; cached : bool }
  | Rejected of { reason : string }
      (** admission control or a draining daemon; [reason] renders a
          typed {!Pmc_sim.Pmc_error} context *)
  | Job_status of { id : int; state : string }
      (** [state] is ["queued"], ["running"] or ["done"] *)
  | Job_result of { id : int; result : Pmc_jobs.Result.t }
  | Pending of { id : int }
  | Stats_reply of stats
  | Shutdown_started of { pending : int }
  | Protocol_error of { reason : string }

(** {1 JSON} *)

val request_to_json : request -> Pmc_bench.Json.t
val request_of_json : Pmc_bench.Json.t -> request
(** @raise Malformed *)

val response_to_json : response -> Pmc_bench.Json.t
val response_of_json : Pmc_bench.Json.t -> response
(** @raise Malformed *)

val stats_to_json : stats -> Pmc_bench.Json.t

exception Malformed of string

(** {1 Line framing} — the exact bytes on the wire, minus the ['\n'] *)

val request_to_line : request -> string
val request_of_line : string -> (request, string) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
