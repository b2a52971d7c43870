(* Job results: typed verdicts with a stable JSON encoding and a
   rendering that reproduces the one-shot CLIs byte for byte.

   Two invariants matter here:

   - every field is deterministic (no host time, no pids): a result is
     a pure function of its job, which is what makes the daemon's
     verdict cache sound — a cache hit replays stored bytes and nobody
     can tell it from a fresh run;
   - [pp] is the single rendering used by litmus_run's program
     sections, pmc_chaos run's report and pmc_serve submit, so the
     serve-smoke CI gate can diff daemon answers against the one-shot
     CLIs. *)

module Json = Pmc_bench.Json
module Measure = Pmc_bench.Measure

type litmus_row = {
  program : string;
  model : string;
  outcomes : string list;
  states : int;
  stuck : int;
}

type check_report = {
  name : string;
  ok : bool;
  errors : string list;
  warnings : string list;
  text : string;  (* the exact bytes pmc_check prints for this program *)
}

type bench_sample = {
  id : string;  (* Spec.case_id *)
  b_ok : bool;
  deterministic : bool;
  repeats : int;
  metrics : Measure.metrics;
}

type error_kind = Bad_request | Budget_exceeded | Runtime_error

type error = { kind : error_kind; detail : string }

type t =
  | Litmus_outcomes of litmus_row list
  | Check_checked of check_report
  | Bench_measured of bench_sample
  | Chaos_soaked of Pmc_apps.Chaos.report
  | Crash_checked of Pmc_apps.Crash.report
  | Error of error

(* ---------------- exit codes ----------------

   The documented CLI contract (the pmc_demo 0/2/3/4 convention):
   0 success, 2 input/budget/runtime errors, 3 property failures
   (discipline errors, checksum mismatches, wrong results), 4 formal
   PMC-model inconsistency. *)

let exit_code = function
  | Litmus_outcomes _ -> 0
  | Check_checked r -> if r.ok then 0 else 3
  | Bench_measured s -> if s.b_ok && s.deterministic then 0 else 3
  | Chaos_soaked r -> (
      match r.Pmc_apps.Chaos.verdict with
      | Pmc_apps.Chaos.Completed | Pmc_apps.Chaos.Typed_error _ -> 0
      | Pmc_apps.Chaos.Wrong_result _ -> 3
      | Pmc_apps.Chaos.Inconsistent _ -> 4)
  | Crash_checked r -> (
      match r.Pmc_apps.Crash.verdict with
      | Pmc_apps.Crash.Completed | Pmc_apps.Crash.Recovered -> 0
      | Pmc_apps.Crash.Check_error _ -> 2
      | Pmc_apps.Crash.Torn _ -> 3
      | Pmc_apps.Crash.Prefix_inconsistent _ -> 4)
  | Error _ -> 2

(* Input errors dominate (a 2 means "the batch did not even run as
   asked"), then model inconsistency, then property failures. *)
let exit_code_all results =
  let codes = List.map exit_code results in
  if List.mem 2 codes then 2
  else if List.mem 4 codes then 4
  else if List.mem 3 codes then 3
  else 0

let ok t = exit_code t = 0

(* ---------------- JSON ---------------- *)

let error_kind_name = function
  | Bad_request -> "bad-request"
  | Budget_exceeded -> "budget-exceeded"
  | Runtime_error -> "runtime-error"

module Chaos = Pmc_apps.Chaos
module Crash = Pmc_apps.Crash
module Fault = Pmc_sim.Fault
module Farmem = Pmc_sim.Farmem

let codec =
  let open Pmc_bench.Codec in
  let row =
    record
      (fun program model outcomes states stuck ->
        { program; model; outcomes; states; stuck })
      [
        field "program" string (fun r -> r.program);
        field "model" string (fun r -> r.model);
        field "outcomes" (list string) (fun r -> r.outcomes);
        field "states" int (fun r -> r.states);
        field "stuck" int (fun r -> r.stuck);
      ]
  in
  (* Checksums are full-range int64s; a JSON number (double) would lose
     the low bits, so they travel as decimal strings. *)
  let int64 =
    conv Int64.to_string
      (fun s ->
        Option.to_result (Int64.of_string_opt s)
          ~none:("mistyped: expected a decimal int64 string, got " ^ s))
      string
  in
  let verdict =
    variant "v"
      [
        const "completed" Chaos.Completed;
        case "typed-error"
          (record Fun.id [ field "detail" string Fun.id ])
          (fun d -> Chaos.Typed_error d)
          (function Chaos.Typed_error d -> Some d | _ -> None);
        case "wrong-result"
          (record
             (fun checksum reference -> (checksum, reference))
             [ field "checksum" int64 fst; field "reference" int64 snd ])
          (fun (checksum, reference) ->
            Chaos.Wrong_result { checksum; reference })
          (function
            | Chaos.Wrong_result { checksum; reference } ->
                Some (checksum, reference)
            | _ -> None);
        case "inconsistent"
          (record Fun.id [ field "violations" int Fun.id ])
          (fun n -> Chaos.Inconsistent n)
          (function Chaos.Inconsistent n -> Some n | _ -> None);
      ]
  in
  let crash_verdict =
    variant "v"
      [
        const "completed" Crash.Completed;
        const "recovered" Crash.Recovered;
        case "torn"
          (record
             (fun objects words -> (objects, words))
             [ field "objects" int fst; field "words" int snd ])
          (fun (objects, words) -> Crash.Torn { objects; words })
          (function
            | Crash.Torn { objects; words } -> Some (objects, words)
            | _ -> None);
        case "inconsistent"
          (record Fun.id [ field "violations" int Fun.id ])
          (fun n -> Crash.Prefix_inconsistent n)
          (function Crash.Prefix_inconsistent n -> Some n | _ -> None);
        case "error"
          (record Fun.id [ field "detail" string Fun.id ])
          (fun d -> Crash.Check_error d)
          (function Crash.Check_error d -> Some d | _ -> None);
      ]
  in
  let obj_check =
    record
      (fun obj_name words committed published in_flight torn_words ->
        { Crash.obj_name; words; committed; published; in_flight; torn_words })
      [
        field "name" string (fun o -> o.Crash.obj_name);
        field "words" int (fun o -> o.Crash.words);
        field "committed" int (fun o -> o.Crash.committed);
        field "published" int (fun o -> o.Crash.published);
        field "in_flight" bool (fun o -> o.Crash.in_flight);
        field "torn_words" int (fun o -> o.Crash.torn_words);
      ]
  in
  let recovery =
    record
      (fun committed records words_applied ->
        { Farmem.committed; records; words_applied })
      [
        field "committed" bool (fun r -> r.Farmem.committed);
        field "records" int (fun r -> r.Farmem.records);
        field "words_applied" int (fun r -> r.Farmem.words_applied);
      ]
  in
  let backend = enum Pmc.Backends.to_string Pmc.Backends.all in
  variant "kind"
    [
      case "litmus"
        (record Fun.id [ field "rows" (list (obj row)) Fun.id ])
        (fun rows -> Litmus_outcomes rows)
        (function Litmus_outcomes rows -> Some rows | _ -> None);
      case "check"
        (record
           (fun name ok errors warnings text ->
             { name; ok; errors; warnings; text })
           [
             field "name" string (fun r -> r.name);
             field "ok" bool (fun r -> r.ok);
             field "errors" (list string) (fun r -> r.errors);
             field "warnings" (list string) (fun r -> r.warnings);
             field "text" string (fun r -> r.text);
           ])
        (fun r -> Check_checked r)
        (function Check_checked r -> Some r | _ -> None);
      case "bench"
        (record
           (fun id b_ok deterministic repeats metrics ->
             { id; b_ok; deterministic; repeats; metrics })
           [
             field "id" string (fun s -> s.id);
             field "ok" bool (fun s -> s.b_ok);
             field "deterministic" bool (fun s -> s.deterministic);
             field "repeats" int (fun s -> s.repeats);
             field "metrics" Measure.metrics_codec (fun s -> s.metrics);
           ])
        (fun s -> Bench_measured s)
        (function Bench_measured s -> Some s | _ -> None);
      case "chaos"
        (record
           (fun app backend cores scale seed intensity verdict wall faults
                events dropped replayed ->
             { Chaos.app; backend; cores; scale; seed; intensity; verdict;
               wall; faults; events; dropped; replayed })
           [
             field "app" string (fun r -> r.Chaos.app);
             field "backend" backend (fun r -> r.Chaos.backend);
             field "cores" int (fun r -> r.Chaos.cores);
             field "scale" int (fun r -> r.Chaos.scale);
             field "seed" int (fun r -> r.Chaos.seed);
             field "intensity" float (fun r -> r.Chaos.intensity);
             field "verdict" (obj verdict) (fun r -> r.Chaos.verdict);
             field "wall" int (fun r -> r.Chaos.wall);
             field "faults" (obj (ints Fault.names)) (fun r -> r.Chaos.faults);
             field "events" int (fun r -> r.Chaos.events);
             field "dropped" int (fun r -> r.Chaos.dropped);
             field "replayed" bool (fun r -> r.Chaos.replayed);
           ])
        (fun r -> Chaos_soaked r)
        (function Chaos_soaked r -> Some r | _ -> None);
      case "chaos-crash"
        (record
           (fun app backend cores scale seed window cut log verdict wall
                objects recovery events dropped replayed ->
             { Crash.app; backend; cores; scale; seed; window; cut; log;
               verdict; wall; objects; recovery; events; dropped; replayed })
           [
             field "app" string (fun r -> r.Crash.app);
             field "backend" backend (fun r -> r.Crash.backend);
             field "cores" int (fun r -> r.Crash.cores);
             field "scale" int (fun r -> r.Crash.scale);
             field "seed" int (fun r -> r.Crash.seed);
             field "window" int (fun r -> r.Crash.window);
             field ~default:None "cut" (nullable int) (fun r -> r.Crash.cut);
             field "log" bool (fun r -> r.Crash.log);
             field "verdict" (obj crash_verdict) (fun r -> r.Crash.verdict);
             field "wall" int (fun r -> r.Crash.wall);
             field "objects" (list (obj obj_check)) (fun r -> r.Crash.objects);
             field ~default:None "recovery" (nullable (obj recovery)) (fun r ->
                 r.Crash.recovery);
             field "events" int (fun r -> r.Crash.events);
             field "dropped" int (fun r -> r.Crash.dropped);
             field "replayed" bool (fun r -> r.Crash.replayed);
           ])
        (fun r -> Crash_checked r)
        (function Crash_checked r -> Some r | _ -> None);
      case "error"
        (record
           (fun kind detail -> { kind; detail })
           [
             field "error"
               (enum error_kind_name
                  [ Bad_request; Budget_exceeded; Runtime_error ])
               (fun e -> e.kind);
             field "detail" string (fun e -> e.detail);
           ])
        (fun e -> Error e) (function Error e -> Some e | _ -> None);
    ]
  |> obj

let to_json = Pmc_bench.Codec.encode codec

let of_json =
  Pmc_bench.Codec.decode_exn ~what:"Pmc_jobs.Result: malformed result"
    codec

(* ---------------- rendering ----------------

   These are the bytes the one-shot CLIs print, reproduced from the
   structured result so the daemon's answers diff clean against them. *)

let pp_row ppf (r : litmus_row) =
  Fmt.pf ppf "%-28s %-24s {%a} (%d states%s)" r.program r.model
    Fmt.(list ~sep:(any "; ") string)
    r.outcomes r.states
    (if r.stuck > 0 then Printf.sprintf ", %d STUCK" r.stuck else "")

let pp ppf (t : t) =
  match t with
  | Litmus_outcomes rows ->
      (* the per-program section of litmus_run's default output *)
      (match rows with
      | [] -> ()
      | r0 :: _ -> Fmt.pf ppf "--- %s ---@." r0.program);
      List.iter (fun r -> Fmt.pf ppf "%a@." pp_row r) rows;
      Fmt.pf ppf "@."
  | Check_checked r -> Fmt.pf ppf "%s" r.text
  | Bench_measured s ->
      Fmt.pf ppf "%-28s %s%s  (repeats %d)@." s.id
        (if s.b_ok then "ok" else "CHECKSUM-MISMATCH")
        (if s.deterministic then "" else " NONDETERMINISTIC")
        s.repeats;
      (* every gated metric, then utilization and throughput, four to
         a line, each value as the result JSON writes it *)
      let gated, rates =
        match Measure.metrics_to_json s.metrics with
        | Json.Obj kvs ->
            List.partition (fun (k, _) -> List.mem k Measure.metric_names) kvs
        | _ -> ([], [])
      in
      let rec lines = function
        | a :: b :: c :: d :: rest -> [ a; b; c; d ] :: lines rest
        | [] -> []
        | last -> [ last ]
      in
      List.iter
        (fun line -> Fmt.pf ppf "  %s@." (String.concat "  " line))
        (lines
           (List.map
              (fun (k, v) -> k ^ " " ^ Json.to_compact v)
              (gated @ rates)))
  | Chaos_soaked r ->
      (* identical to pmc_chaos run's report *)
      Fmt.pf ppf "%a@.%a@.trace: %d events captured, %d dropped@."
        Pmc_apps.Chaos.pp_report r Pmc_apps.Chaos.pp_tag_summary
        r.Pmc_apps.Chaos.faults r.Pmc_apps.Chaos.events
        r.Pmc_apps.Chaos.dropped
  | Crash_checked r ->
      (* identical to pmc_chaos crash's per-experiment report *)
      Fmt.pf ppf "%a@.trace: %d events captured, %d dropped@."
        Pmc_apps.Crash.pp_report r r.Pmc_apps.Crash.events
        r.Pmc_apps.Crash.dropped
  | Error e ->
      Fmt.pf ppf "error (%s): %s@." (error_kind_name e.kind) e.detail
