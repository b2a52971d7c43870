(* The wire protocol: newline-delimited JSON, one request or response
   object per line, over a Unix domain socket.

   The encoding reuses the repo's hand-rolled {!Pmc_bench.Json} with
   its compact printer, so the daemon carries no new dependency and a
   client is scriptable with a couple of lines of anything that speaks
   JSON.  Responses embed {!Pmc_jobs.Result} verbatim — the same
   canonical encoding the verdict cache stores, which is why a cache
   hit is byte-identical to a fresh run all the way to the client. *)

module Json = Pmc_bench.Json
module Job = Pmc_jobs.Job
module Result_ = Pmc_jobs.Result
module Run = Pmc_jobs.Run

type request =
  | Submit of { job : Job.t; budget : Run.budget; wait : bool }
      (* [wait]: hold the reply until the job completes and answer with
         the result itself *)
  | Status of { id : int }
  | Result_of of { id : int; wait : bool }
  | Stats
  | Shutdown

type stats = {
  width : int;          (* pool width the daemon multiplexes onto *)
  queue_depth : int;    (* submitted jobs not yet finished *)
  running : int;
  submitted : int;
  completed : int;
  rejected : int;       (* admission-control rejections *)
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  draining : bool;
}

type response =
  | Submitted of { id : int; cached : bool }
  | Rejected of { reason : string }
      (* admission control or a draining daemon; [reason] is a rendered
         typed {!Pmc_sim.Pmc_error} context *)
  | Job_status of { id : int; state : string }
  | Job_result of { id : int; result : Result_.t }
  | Pending of { id : int }
  | Stats_reply of stats
  | Shutdown_started of { pending : int }
  | Protocol_error of { reason : string }

(* ---------------- JSON ---------------- *)

exception Malformed of string

module C = Pmc_bench.Codec

let request_codec =
  let open C in
  let id get = field "id" int get in
  let wait get = field ~default:false "wait" bool get in
  variant "op"
    [
      case "submit"
        (record
           (fun job budget wait ->
             (* absent or null: no per-request budget *)
             (job, Option.value ~default:Run.no_budget budget, wait))
           [
             field "job" Job.codec (fun (j, _, _) -> j);
             field ~default:None "budget" (nullable Run.budget_codec)
               (fun (_, b, _) -> Some b);
             wait (fun (_, _, w) -> w);
           ])
        (fun (job, budget, wait) -> Submit { job; budget; wait })
        (function
          | Submit { job; budget; wait } -> Some (job, budget, wait)
          | _ -> None);
      case "status" (record Fun.id [ id Fun.id ])
        (fun id -> Status { id })
        (function Status { id } -> Some id | _ -> None);
      case "result"
        (record
           (fun id wait -> (id, wait))
           [ id fst; wait snd ])
        (fun (id, wait) -> Result_of { id; wait })
        (function Result_of { id; wait } -> Some (id, wait) | _ -> None);
      const "stats" Stats;
      const "shutdown" Shutdown;
    ]
  |> obj

let stats_codec =
  C.(
    obj
      (record
         (fun width queue_depth running submitted completed rejected
              cache_hits cache_misses cache_entries draining ->
           { width; queue_depth; running; submitted; completed; rejected;
             cache_hits; cache_misses; cache_entries; draining })
         [
           field "width" int (fun s -> s.width);
           field "queue_depth" int (fun s -> s.queue_depth);
           field "running" int (fun s -> s.running);
           field "submitted" int (fun s -> s.submitted);
           field "completed" int (fun s -> s.completed);
           field "rejected" int (fun s -> s.rejected);
           field "cache_hits" int (fun s -> s.cache_hits);
           field "cache_misses" int (fun s -> s.cache_misses);
           field "cache_entries" int (fun s -> s.cache_entries);
           field "draining" bool (fun s -> s.draining);
         ]))

(* [ok] precedes the tag: false for refusals, true otherwise.  It is
   derived from the response, so a decoded [ok] must agree with it. *)
let ok_of = function Rejected _ | Protocol_error _ -> false | _ -> true

let response_codec =
  let open C in
  let id get = field "id" int get in
  let reason = record Fun.id [ field "reason" string Fun.id ] in
  let body =
    variant "resp"
      [
        case "submitted"
          (record (fun id cached -> (id, cached))
             [ id fst; field "cached" bool snd ])
          (fun (id, cached) -> Submitted { id; cached })
          (function Submitted { id; cached } -> Some (id, cached) | _ -> None);
        case "rejected" reason
          (fun reason -> Rejected { reason })
          (function Rejected { reason } -> Some reason | _ -> None);
        case "status"
          (record (fun id state -> (id, state))
             [ id fst; field "state" string snd ])
          (fun (id, state) -> Job_status { id; state })
          (function Job_status { id; state } -> Some (id, state) | _ -> None);
        case "result"
          (record (fun id result -> (id, result))
             [ id fst; field "result" Result_.codec snd ])
          (fun (id, result) -> Job_result { id; result })
          (function
            | Job_result { id; result } -> Some (id, result) | _ -> None);
        case "pending" (record Fun.id [ id Fun.id ])
          (fun id -> Pending { id })
          (function Pending { id } -> Some id | _ -> None);
        case "stats"
          (record Fun.id [ field "stats" stats_codec Fun.id ])
          (fun s -> Stats_reply s)
          (function Stats_reply s -> Some s | _ -> None);
        case "shutdown"
          (record Fun.id [ field "pending" int Fun.id ])
          (fun pending -> Shutdown_started { pending })
          (function Shutdown_started { pending } -> Some pending | _ -> None);
        case "error" reason
          (fun reason -> Protocol_error { reason })
          (function Protocol_error { reason } -> Some reason | _ -> None);
      ]
  in
  record
    (fun ok r ->
      if ok <> ok_of r then
        fail "ok" (Printf.sprintf "mistyped: expected %b, got %b" (ok_of r) ok)
      else r)
    [ field "ok" bool ok_of; inline body Fun.id ]
  |> obj

let decode c j =
  match C.decode c j with Ok v -> v | Error m -> raise (Malformed m)

let request_to_json = C.encode request_codec
let request_of_json = decode request_codec
let response_to_json = C.encode response_codec
let response_of_json = decode response_codec
let stats_to_json = C.encode stats_codec

(* ---------------- framing ---------------- *)

let request_to_line r = Json.to_compact (request_to_json r)

let request_of_line line =
  match Json.parse line with
  | j -> ( try Ok (request_of_json j) with Malformed m -> Error m)
  | exception Json.Parse_error m -> Error m

let response_to_line r = Json.to_compact (response_to_json r)

let response_of_line line =
  match Json.parse line with
  | j -> ( try Ok (response_of_json j) with Malformed m -> Error m)
  | exception Json.Parse_error m -> Error m
