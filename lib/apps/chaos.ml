(* Chaos soak harness: run registered applications under seeded fault
   schedules and hold them to a hard contract — a run may complete with
   the right answer, or it may fail with a *typed* error, but it must
   never finish with a silently wrong answer or a trace the PMC model
   cannot explain.

   Each run arms the fault plane with [Config.chaos ~seed], records the
   full trace, and on completion (a) checks the app checksum against its
   sequential reference and (b) replays the trace through the formal
   model ([Pmc_model.History] via [Pmc_trace.Replay]).  The fault plane
   is deterministic, so every verdict is reproducible from
   (app, backend, cores, scale, seed, intensity) alone. *)

open Pmc_sim

type verdict =
  | Completed
      (* checksum matched and (when the trace was complete) the model
         replay found the run PMC-consistent *)
  | Typed_error of string
      (* the run died with a typed, attributable error — acceptable
         under injected faults *)
  | Wrong_result of { checksum : int64; reference : int64 }
  | Inconsistent of int  (* model replay violations: never acceptable *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  intensity : float;
  verdict : verdict;
  wall : int;
  faults : Fault.counts;  (* snapshot of the run's fault counters *)
  events : int;           (* trace events captured *)
  dropped : int;          (* trace events lost to ring overflow *)
  replayed : bool;        (* model replay ran (complete trace only) *)
}

(* A soak accepts completed-correct and typed-error runs; silent wrong
   answers and model-inconsistent runs fail it. *)
let acceptable = function
  | Completed | Typed_error _ -> true
  | Wrong_result _ | Inconsistent _ -> false

(* The four fault tags, each with the counters of its hits and its
   draws: the per-tag soak summary, and (the hits) what a run injected. *)
let tags =
  List.map
    (fun (tag, hit_names, draw_name) ->
      (tag, List.map Fault.slot hit_names, Fault.slot draw_name))
    [
      ("noc", [ "noc_drops"; "noc_corrupts"; "noc_delays" ], "noc_draws");
      ("sdram", [ "sdram_retries" ], "sdram_draws");
      ("stall", [ "tile_stalls" ], "stall_draws");
      ("power-cut", [ "power_cuts" ], "power_cut_draws");
    ]

let hits c slots = List.fold_left (fun n s -> n + Fault.get c s) 0 slots

let total_injected c =
  List.fold_left (fun n (_, slots, _) -> n + hits c slots) 0 tags

(* Above this many captured events a replay is skipped (reported as
   [replayed = false]) and the run is judged on its checksum alone.
   The incremental checker replays events in near-constant time each,
   so the budget is an order of magnitude wider than it was under the
   per-event-recomputation checker — at ~1M events/s it bounds a replay
   to well under a second. *)
let default_replay_budget = 100_000

let run_one ?(intensity = 1.0) ?(model_check = true)
    ?(replay_budget = default_replay_budget) ?capacity ?max_cycles
    ?(topology = Topology.Star) (a : Runner.app) ~backend ~cores ~scale
    ~seed : report =
  let cfg =
    Config.chaos ~intensity ~seed { Config.default with cores; topology }
    |> Config.tighten_watchdog ?max_cycles
  in
  let recorder = ref None in
  let machine = ref None in
  let on_api api =
    machine := Some (Pmc.Api.machine api);
    recorder := Some (Pmc_trace.Recorder.attach ?capacity api)
  in
  let finish verdict ~replayed =
    let wall =
      match !machine with
      | Some m -> Engine.wall_time (Machine.engine m)
      | None -> 0
    in
    let faults =
      match !machine with
      | Some m -> Fault.counts (Machine.fault m)
      | None -> Fault.zero ()
    in
    let events, dropped =
      match !recorder with
      | Some r ->
          (Pmc_trace.Recorder.recorded r, Pmc_trace.Recorder.dropped_total r)
      | None -> (0, 0)
    in
    {
      app = a.Runner.name; backend; cores; scale; seed; intensity; verdict;
      wall; faults; events; dropped; replayed;
    }
  in
  match Runner.run ~cfg ~on_api a ~backend ~scale with
  | r ->
      if not (Runner.ok r) then
        finish
          (Wrong_result
             {
               checksum = r.Runner.checksum;
               reference = r.Runner.reference;
             })
          ~replayed:false
      else begin
        let rec_ = Option.get !recorder in
        let dropped = Pmc_trace.Recorder.dropped_total rec_ in
        (* replay only complete traces: a ring overflow loses acquire or
           init events and would produce spurious verdicts *)
        if
          model_check && dropped = 0
          && Pmc_trace.Recorder.recorded rec_ <= replay_budget
        then begin
          let events = Pmc_trace.Recorder.events rec_ in
          let rep = Pmc_trace.Replay.check ~cores events in
          if Pmc_model.History.ok rep then finish Completed ~replayed:true
          else
            finish
              (Inconsistent (List.length rep.Pmc_model.History.violations))
              ~replayed:true
        end
        else finish Completed ~replayed:false
      end
  | exception Pmc_error.Error c ->
      finish (Typed_error (Pmc_error.to_string c)) ~replayed:false
  | exception Engine.Watchdog n ->
      finish (Typed_error (Printf.sprintf "watchdog: no progress by cycle %d" n))
        ~replayed:false
  | exception Engine.Deadlock msg ->
      finish (Typed_error ("deadlock: " ^ msg)) ~replayed:false
  | exception Engine.Power_cut cycle ->
      (* a soak config that also arms the power-cut tag loses the run at
         the cut; the crash checker ([Crash]) is the harness that judges
         what the cut left behind *)
      finish
        (Typed_error (Printf.sprintf "power cut at cycle %d" cycle))
        ~replayed:false

(* ---------------- the soak loop ---------------- *)

type soak = {
  reports : report list;  (* in run order *)
  total : int;
  completed : int;
  typed_errors : int;
  failed : int;           (* wrong results + inconsistent replays *)
  injected : int;         (* faults injected across all runs *)
}

(* The verdict totals of a report list — shared by [pmc_chaos soak]'s
   job batch and the sequential reference soak in the tests, so both
   summarize runs identically. *)
let summarize (reports : report list) : soak =
  let count p = List.length (List.filter p reports) in
  {
    reports;
    total = List.length reports;
    completed = count (fun r -> r.verdict = Completed);
    typed_errors =
      count (fun r -> match r.verdict with Typed_error _ -> true | _ -> false);
    failed = count (fun r -> not (acceptable r.verdict));
    injected =
      List.fold_left (fun acc r -> acc + total_injected r.faults) 0 reports;
  }

let ok s = s.failed = 0

(* ---------------- zero-cost-when-off identity ---------------- *)

type identity = { identical : bool; detail : string }

(* The bit-identical baseline invariant: a machine whose chaos schedule
   is armed and then disarmed ([Config.no_faults (Config.chaos ...)])
   must produce exactly the run of the never-armed machine — same wall
   clock, same checksum, same per-category cycle accounts. *)
let zero_cost_identity (a : Runner.app) ~backend ~cores ~scale ~seed :
    identity =
  let base_cfg = { Config.default with cores } in
  let disarmed = Config.no_faults (Config.chaos ~seed base_cfg) in
  let base = Runner.run ~cfg:base_cfg a ~backend ~scale in
  let dis = Runner.run ~cfg:disarmed a ~backend ~scale in
  if
    base.Runner.wall = dis.Runner.wall
    && base.Runner.checksum = dis.Runner.checksum
    && base.Runner.summary = dis.Runner.summary
  then { identical = true; detail = "" }
  else
    {
      identical = false;
      detail =
        Printf.sprintf
          "wall %d vs %d, checksum %Ld vs %Ld, summaries %s"
          base.Runner.wall dis.Runner.wall base.Runner.checksum
          dis.Runner.checksum
          (if base.Runner.summary = dis.Runner.summary then "equal"
           else "differ");
    }

(* ---------------- printing ---------------- *)

let verdict_name = function
  | Completed -> "completed"
  | Typed_error _ -> "typed-error"
  | Wrong_result _ -> "WRONG-RESULT"
  | Inconsistent _ -> "INCONSISTENT"

let pp_verdict ppf = function
  | Completed -> Fmt.pf ppf "completed"
  | Typed_error msg -> Fmt.pf ppf "typed error: %s" msg
  | Wrong_result { checksum; reference } ->
      Fmt.pf ppf "WRONG RESULT: checksum %Ld, expected %Ld" checksum reference
  | Inconsistent n -> Fmt.pf ppf "INCONSISTENT: %d model violation(s)" n

(* The counters a run's report line shows, under short labels. *)
let shown =
  List.map
    (fun (label, name) -> (label, Fault.slot name))
    [
      ("drops", "noc_drops"); ("corrupts", "noc_corrupts");
      ("delays", "noc_delays"); ("retries", "noc_retries");
      ("dead", "links_dead"); ("relayed", "relay_deliveries");
      ("sdram", "sdram_retries"); ("stalls", "tile_stalls");
      ("lock_to", "lock_timeouts");
    ]

let pp_counts ppf c =
  Fmt.string ppf
    (String.concat " "
       (List.map
          (fun (label, s) -> Printf.sprintf "%s=%d" label (Fault.get c s))
          shown))

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-12s %-5s seed=%-5d wall=%-10d %a [%a]%s" r.app
    (Pmc.Backends.to_string r.backend)
    r.seed r.wall pp_verdict r.verdict pp_counts r.faults
    (if r.replayed then " replay=ok" else "")

let pp_soak ppf (s : soak) =
  Fmt.pf ppf
    "%d runs: %d completed, %d typed errors, %d failures; %d faults injected"
    s.total s.completed s.typed_errors s.failed s.injected

(* Per-tag injection summary: how often each fault tag consulted the
   hash stream (draws) and how often it fired (hits) — the at-a-glance
   answer to "did this soak actually exercise tag X?". *)
let pp_tag_summary ppf c =
  Fmt.pf ppf "fault tags (hits/draws): %s"
    (String.concat ", "
       (List.map
          (fun (tag, slots, draws) ->
            Printf.sprintf "%s %d/%d" tag (hits c slots) (Fault.get c draws))
          tags))

let soak_counts (s : soak) = Fault.sum (List.map (fun r -> r.faults) s.reports)
