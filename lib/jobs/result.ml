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

let error_kind_of_name = function
  | "bad-request" -> Some Bad_request
  | "budget-exceeded" -> Some Budget_exceeded
  | "runtime-error" -> Some Runtime_error
  | _ -> None

let fail msg = failwith ("Pmc_jobs.Result: malformed result: " ^ msg)
let req what = function Some v -> v | None -> fail ("missing " ^ what)

let str_list key j =
  List.map
    (fun v -> req (key ^ " element") (Json.to_str v))
    (req key (Json.get_list key j))

let row_to_json (r : litmus_row) =
  Json.Obj
    [
      ("program", Json.Str r.program);
      ("model", Json.Str r.model);
      ("outcomes", Json.List (List.map (fun o -> Json.Str o) r.outcomes));
      ("states", Json.int r.states);
      ("stuck", Json.int r.stuck);
    ]

let row_of_json j =
  {
    program = req "program" (Json.get_str "program" j);
    model = req "model" (Json.get_str "model" j);
    outcomes = str_list "outcomes" j;
    states = req "states" (Json.get_int "states" j);
    stuck = req "stuck" (Json.get_int "stuck" j);
  }

(* Checksums are full-range int64s; a JSON number (double) would lose
   the low bits, so they travel as decimal strings. *)
let int64_str v = Json.Str (Int64.to_string v)

let int64_of key j =
  match Int64.of_string_opt (req key (Json.get_str key j)) with
  | Some v -> v
  | None -> fail (key ^ " must be a decimal int64 string")

let verdict_to_json (v : Pmc_apps.Chaos.verdict) =
  match v with
  | Pmc_apps.Chaos.Completed -> Json.Obj [ ("v", Json.Str "completed") ]
  | Pmc_apps.Chaos.Typed_error detail ->
      Json.Obj [ ("v", Json.Str "typed-error"); ("detail", Json.Str detail) ]
  | Pmc_apps.Chaos.Wrong_result { checksum; reference } ->
      Json.Obj
        [
          ("v", Json.Str "wrong-result");
          ("checksum", int64_str checksum);
          ("reference", int64_str reference);
        ]
  | Pmc_apps.Chaos.Inconsistent n ->
      Json.Obj [ ("v", Json.Str "inconsistent"); ("violations", Json.int n) ]

let verdict_of_json j : Pmc_apps.Chaos.verdict =
  match req "v" (Json.get_str "v" j) with
  | "completed" -> Pmc_apps.Chaos.Completed
  | "typed-error" ->
      Pmc_apps.Chaos.Typed_error (req "detail" (Json.get_str "detail" j))
  | "wrong-result" ->
      Pmc_apps.Chaos.Wrong_result
        { checksum = int64_of "checksum" j; reference = int64_of "reference" j }
  | "inconsistent" ->
      Pmc_apps.Chaos.Inconsistent
        (req "violations" (Json.get_int "violations" j))
  | v -> fail ("unknown verdict " ^ v)

let crash_verdict_to_json (v : Pmc_apps.Crash.verdict) =
  match v with
  | Pmc_apps.Crash.Completed -> Json.Obj [ ("v", Json.Str "completed") ]
  | Pmc_apps.Crash.Recovered -> Json.Obj [ ("v", Json.Str "recovered") ]
  | Pmc_apps.Crash.Torn { objects; words } ->
      Json.Obj
        [
          ("v", Json.Str "torn");
          ("objects", Json.int objects);
          ("words", Json.int words);
        ]
  | Pmc_apps.Crash.Prefix_inconsistent n ->
      Json.Obj [ ("v", Json.Str "inconsistent"); ("violations", Json.int n) ]
  | Pmc_apps.Crash.Check_error detail ->
      Json.Obj [ ("v", Json.Str "error"); ("detail", Json.Str detail) ]

let crash_verdict_of_json j : Pmc_apps.Crash.verdict =
  match req "v" (Json.get_str "v" j) with
  | "completed" -> Pmc_apps.Crash.Completed
  | "recovered" -> Pmc_apps.Crash.Recovered
  | "torn" ->
      Pmc_apps.Crash.Torn
        {
          objects = req "objects" (Json.get_int "objects" j);
          words = req "words" (Json.get_int "words" j);
        }
  | "inconsistent" ->
      Pmc_apps.Crash.Prefix_inconsistent
        (req "violations" (Json.get_int "violations" j))
  | "error" ->
      Pmc_apps.Crash.Check_error (req "detail" (Json.get_str "detail" j))
  | v -> fail ("unknown crash verdict " ^ v)

let obj_check_to_json (o : Pmc_apps.Crash.obj_check) =
  Json.Obj
    [
      ("name", Json.Str o.Pmc_apps.Crash.obj_name);
      ("words", Json.int o.Pmc_apps.Crash.words);
      ("committed", Json.int o.Pmc_apps.Crash.committed);
      ("published", Json.int o.Pmc_apps.Crash.published);
      ("in_flight", Json.Bool o.Pmc_apps.Crash.in_flight);
      ("torn_words", Json.int o.Pmc_apps.Crash.torn_words);
    ]

let obj_check_of_json j : Pmc_apps.Crash.obj_check =
  {
    Pmc_apps.Crash.obj_name = req "name" (Json.get_str "name" j);
    words = req "words" (Json.get_int "words" j);
    committed = req "committed" (Json.get_int "committed" j);
    published = req "published" (Json.get_int "published" j);
    in_flight = req "in_flight" (Json.get_bool "in_flight" j);
    torn_words = req "torn_words" (Json.get_int "torn_words" j);
  }

let recovery_to_json = function
  | None -> Json.Null
  | Some (r : Pmc_sim.Farmem.recovery) ->
      Json.Obj
        [
          ("committed", Json.Bool r.Pmc_sim.Farmem.committed);
          ("records", Json.int r.Pmc_sim.Farmem.records);
          ("words_applied", Json.int r.Pmc_sim.Farmem.words_applied);
        ]

let recovery_of_json j : Pmc_sim.Farmem.recovery option =
  match j with
  | None | Some Json.Null -> None
  | Some r ->
      Some
        {
          Pmc_sim.Farmem.committed = req "committed" (Json.get_bool "committed" r);
          records = req "records" (Json.get_int "records" r);
          words_applied = req "words_applied" (Json.get_int "words_applied" r);
        }

let counts_to_json (c : Pmc_sim.Fault.counts) =
  Json.Obj
    [
      ("noc_drops", Json.int c.Pmc_sim.Fault.noc_drops);
      ("noc_corrupts", Json.int c.Pmc_sim.Fault.noc_corrupts);
      ("noc_delays", Json.int c.Pmc_sim.Fault.noc_delays);
      ("noc_retries", Json.int c.Pmc_sim.Fault.noc_retries);
      ("links_dead", Json.int c.Pmc_sim.Fault.links_dead);
      ("relay_deliveries", Json.int c.Pmc_sim.Fault.relay_deliveries);
      ("sdram_retries", Json.int c.Pmc_sim.Fault.sdram_retries);
      ("tile_stalls", Json.int c.Pmc_sim.Fault.tile_stalls);
      ("stall_cycles", Json.int c.Pmc_sim.Fault.stall_cycles);
      ("lock_timeouts", Json.int c.Pmc_sim.Fault.lock_timeouts);
      ("noc_draws", Json.int c.Pmc_sim.Fault.noc_draws);
      ("sdram_draws", Json.int c.Pmc_sim.Fault.sdram_draws);
      ("stall_draws", Json.int c.Pmc_sim.Fault.stall_draws);
      ("power_cut_draws", Json.int c.Pmc_sim.Fault.power_cut_draws);
      ("power_cuts", Json.int c.Pmc_sim.Fault.power_cuts);
    ]

let counts_of_json j : Pmc_sim.Fault.counts =
  let i key = req key (Json.get_int key j) in
  {
    Pmc_sim.Fault.noc_drops = i "noc_drops";
    noc_corrupts = i "noc_corrupts";
    noc_delays = i "noc_delays";
    noc_retries = i "noc_retries";
    links_dead = i "links_dead";
    relay_deliveries = i "relay_deliveries";
    sdram_retries = i "sdram_retries";
    tile_stalls = i "tile_stalls";
    stall_cycles = i "stall_cycles";
    lock_timeouts = i "lock_timeouts";
    noc_draws = i "noc_draws";
    sdram_draws = i "sdram_draws";
    stall_draws = i "stall_draws";
    power_cut_draws = i "power_cut_draws";
    power_cuts = i "power_cuts";
  }

let to_json (t : t) : Json.t =
  match t with
  | Litmus_outcomes rows ->
      Json.Obj
        [
          ("kind", Json.Str "litmus");
          ("rows", Json.List (List.map row_to_json rows));
        ]
  | Check_checked r ->
      Json.Obj
        [
          ("kind", Json.Str "check");
          ("name", Json.Str r.name);
          ("ok", Json.Bool r.ok);
          ("errors", Json.List (List.map (fun e -> Json.Str e) r.errors));
          ("warnings", Json.List (List.map (fun w -> Json.Str w) r.warnings));
          ("text", Json.Str r.text);
        ]
  | Bench_measured s ->
      Json.Obj
        [
          ("kind", Json.Str "bench");
          ("id", Json.Str s.id);
          ("ok", Json.Bool s.b_ok);
          ("deterministic", Json.Bool s.deterministic);
          ("repeats", Json.int s.repeats);
          ("metrics", Measure.metrics_to_json s.metrics);
        ]
  | Chaos_soaked r ->
      Json.Obj
        [
          ("kind", Json.Str "chaos");
          ("app", Json.Str r.Pmc_apps.Chaos.app);
          ( "backend",
            Json.Str (Pmc.Backends.to_string r.Pmc_apps.Chaos.backend) );
          ("cores", Json.int r.Pmc_apps.Chaos.cores);
          ("scale", Json.int r.Pmc_apps.Chaos.scale);
          ("seed", Json.int r.Pmc_apps.Chaos.seed);
          ("intensity", Json.float r.Pmc_apps.Chaos.intensity);
          ("verdict", verdict_to_json r.Pmc_apps.Chaos.verdict);
          ("wall", Json.int r.Pmc_apps.Chaos.wall);
          ("faults", counts_to_json r.Pmc_apps.Chaos.faults);
          ("events", Json.int r.Pmc_apps.Chaos.events);
          ("dropped", Json.int r.Pmc_apps.Chaos.dropped);
          ("replayed", Json.Bool r.Pmc_apps.Chaos.replayed);
        ]
  | Crash_checked r ->
      Json.Obj
        [
          ("kind", Json.Str "chaos-crash");
          ("app", Json.Str r.Pmc_apps.Crash.app);
          ( "backend",
            Json.Str (Pmc.Backends.to_string r.Pmc_apps.Crash.backend) );
          ("cores", Json.int r.Pmc_apps.Crash.cores);
          ("scale", Json.int r.Pmc_apps.Crash.scale);
          ("seed", Json.int r.Pmc_apps.Crash.seed);
          ("window", Json.int r.Pmc_apps.Crash.window);
          ( "cut",
            match r.Pmc_apps.Crash.cut with
            | None -> Json.Null
            | Some c -> Json.int c );
          ("log", Json.Bool r.Pmc_apps.Crash.log);
          ("verdict", crash_verdict_to_json r.Pmc_apps.Crash.verdict);
          ("wall", Json.int r.Pmc_apps.Crash.wall);
          ( "objects",
            Json.List (List.map obj_check_to_json r.Pmc_apps.Crash.objects) );
          ("recovery", recovery_to_json r.Pmc_apps.Crash.recovery);
          ("events", Json.int r.Pmc_apps.Crash.events);
          ("dropped", Json.int r.Pmc_apps.Crash.dropped);
          ("replayed", Json.Bool r.Pmc_apps.Crash.replayed);
        ]
  | Error e ->
      Json.Obj
        [
          ("kind", Json.Str "error");
          ("error", Json.Str (error_kind_name e.kind));
          ("detail", Json.Str e.detail);
        ]

let of_json (j : Json.t) : t =
  match req "kind" (Json.get_str "kind" j) with
  | "litmus" ->
      Litmus_outcomes
        (List.map row_of_json (req "rows" (Json.get_list "rows" j)))
  | "check" ->
      Check_checked
        {
          name = req "name" (Json.get_str "name" j);
          ok = req "ok" (Json.get_bool "ok" j);
          errors = str_list "errors" j;
          warnings = str_list "warnings" j;
          text = req "text" (Json.get_str "text" j);
        }
  | "bench" ->
      Bench_measured
        {
          id = req "id" (Json.get_str "id" j);
          b_ok = req "ok" (Json.get_bool "ok" j);
          deterministic = req "deterministic" (Json.get_bool "deterministic" j);
          repeats = req "repeats" (Json.get_int "repeats" j);
          metrics =
            Measure.metrics_of_json (req "metrics" (Json.member "metrics" j));
        }
  | "chaos" ->
      let backend_s = req "backend" (Json.get_str "backend" j) in
      let backend =
        match Pmc.Backends.of_string backend_s with
        | Some b -> b
        | None -> fail ("unknown backend " ^ backend_s)
      in
      Chaos_soaked
        {
          Pmc_apps.Chaos.app = req "app" (Json.get_str "app" j);
          backend;
          cores = req "cores" (Json.get_int "cores" j);
          scale = req "scale" (Json.get_int "scale" j);
          seed = req "seed" (Json.get_int "seed" j);
          intensity = req "intensity" (Json.get_num "intensity" j);
          verdict = verdict_of_json (req "verdict" (Json.member "verdict" j));
          wall = req "wall" (Json.get_int "wall" j);
          faults = counts_of_json (req "faults" (Json.member "faults" j));
          events = req "events" (Json.get_int "events" j);
          dropped = req "dropped" (Json.get_int "dropped" j);
          replayed = req "replayed" (Json.get_bool "replayed" j);
        }
  | "chaos-crash" ->
      let backend_s = req "backend" (Json.get_str "backend" j) in
      let backend =
        match Pmc.Backends.of_string backend_s with
        | Some b -> b
        | None -> fail ("unknown backend " ^ backend_s)
      in
      Crash_checked
        {
          Pmc_apps.Crash.app = req "app" (Json.get_str "app" j);
          backend;
          cores = req "cores" (Json.get_int "cores" j);
          scale = req "scale" (Json.get_int "scale" j);
          seed = req "seed" (Json.get_int "seed" j);
          window = req "window" (Json.get_int "window" j);
          cut =
            (match Json.member "cut" j with
            | None | Some Json.Null -> None
            | Some v -> (
                match Json.to_int v with
                | Some c -> Some c
                | None -> fail "cut must be an integer or null"));
          log = req "log" (Json.get_bool "log" j);
          verdict =
            crash_verdict_of_json (req "verdict" (Json.member "verdict" j));
          wall = req "wall" (Json.get_int "wall" j);
          objects =
            List.map obj_check_of_json
              (req "objects" (Json.get_list "objects" j));
          recovery = recovery_of_json (Json.member "recovery" j);
          events = req "events" (Json.get_int "events" j);
          dropped = req "dropped" (Json.get_int "dropped" j);
          replayed = req "replayed" (Json.get_bool "replayed" j);
        }
  | "error" ->
      let kind_s = req "error" (Json.get_str "error" j) in
      let kind =
        match error_kind_of_name kind_s with
        | Some k -> k
        | None -> fail ("unknown error kind " ^ kind_s)
      in
      Error { kind; detail = req "detail" (Json.get_str "detail" j) }
  | k -> fail ("unknown kind " ^ k)

(* ---------------- rendering ----------------

   These are the bytes the one-shot CLIs print, reproduced from the
   structured result so the daemon's answers diff clean against them. *)

let pp_row ppf (r : litmus_row) =
  (* identical to {!Pmc_model.Litmus.pp_result} *)
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
      let json = Measure.metrics_to_json s.metrics in
      let field name =
        name ^ " " ^ Json.to_compact (Option.get (Json.member name json))
      in
      let rec lines = function
        | a :: b :: c :: d :: rest -> [ a; b; c; d ] :: lines rest
        | [] -> []
        | last -> [ last ]
      in
      List.iter
        (fun line -> Fmt.pf ppf "  %s@." (String.concat "  " line))
        (lines
           (List.map field
              (Measure.metric_names @ [ "utilization"; "throughput" ])))
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
