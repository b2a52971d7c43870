(* Job execution: the pure function from (job, budget) to result.

   This is the command logic that used to be inlined in litmus_run,
   pmc_check, pmc_bench and pmc_chaos, factored to where both the
   one-shot CLIs and the pmc_serve daemon can call it.  [run] never
   raises — every failure mode becomes a typed [Result.Error] — and
   never touches the filesystem, the clock or global mutable state
   beyond what the simulator resets per run (the §11 re-entrancy rule),
   so results are reproducible bit for bit on any domain of a pool. *)

type budget = { max_cycles : int option; max_states : int option }

let no_budget = { max_cycles = None; max_states = None }

let opt_min a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let tighter a b =
  {
    max_cycles = opt_min a.max_cycles b.max_cycles;
    max_states = opt_min a.max_states b.max_states;
  }

(* Either bound may be absent or null: no bound. *)
let budget_codec =
  Pmc_bench.Codec.(
    obj
      (record
         (fun max_cycles max_states -> { max_cycles; max_states })
         [
           field ~default:None "max_cycles" (nullable int) (fun b ->
               b.max_cycles);
           field ~default:None "max_states" (nullable int) (fun b ->
               b.max_states);
         ]))

let budget_to_json = Pmc_bench.Codec.encode budget_codec

(* ---------------- name resolution ---------------- *)

(* The standard litmus programs under both their CLI-friendly slugs and
   their descriptive names. *)
let standard_programs : (string * Pmc_model.Lprog.t) list =
  [
    ("mp_plain", Pmc_model.Lprog.mp_plain);
    ("mp_fence", Pmc_model.Lprog.mp_fence);
    ("mp_annotated", Pmc_model.Lprog.mp_annotated);
    ("mp_annotated_nofence", Pmc_model.Lprog.mp_annotated_nofence);
    ("sb", Pmc_model.Lprog.sb);
    ("coherence_1w", Pmc_model.Lprog.coherence_1w);
    ("coherence_2w", Pmc_model.Lprog.coherence_2w);
    ("exclusive_fig4", Pmc_model.Lprog.exclusive_fig4);
    ("locked_exchange", Pmc_model.Lprog.locked_exchange);
    ("iriw", Pmc_model.Lprog.iriw);
    ("wrc", Pmc_model.Lprog.wrc);
    ("lb", Pmc_model.Lprog.lb);
  ]

let program_names = List.map fst standard_programs

let find_program name =
  match List.assoc_opt name standard_programs with
  | Some p -> Some p
  | None ->
      List.find_opt
        (fun (p : Pmc_model.Lprog.t) -> p.Pmc_model.Lprog.name = name)
        Pmc_model.Lprog.all_standard

(* Models resolve by short alias (sc, pc, cc, ec, slow, pmc) or by
   their full descriptive name, case-insensitively. *)
let model_alias (module M : Pmc_model.Models.SEM) =
  let full = M.name in
  let cut = match String.index_opt full ' ' with
    | Some i -> String.sub full 0 i
    | None -> full
  in
  String.lowercase_ascii cut

let model_names = List.map model_alias Pmc_model.Models.all

let find_model name =
  let lname = String.lowercase_ascii name in
  List.find_opt
    (fun m ->
      let (module M : Pmc_model.Models.SEM) = m in
      model_alias m = lname || String.lowercase_ascii M.name = lname)
    Pmc_model.Models.all

let bad fmt = Printf.ksprintf (fun detail ->
    Result.Error { Result.kind = Result.Bad_request; detail }) fmt

let find_backend name k =
  match Pmc.Backends.of_string name with
  | Some b -> k b
  | None -> bad "unknown backend %S (seqcst|nocc|swcc|dsm|spm|farmem)" name

let find_topology name ~cores k =
  match Pmc_sim.Topology.resolve name ~cores with
  | Ok t -> k t
  | Error e -> bad "%s" e

let check_geometry ~cores ~scale k =
  if cores < 1 || cores > 1024 then
    bad "cores must be in [1, 1024] (got %d)" cores
  else if scale < 1 then bad "scale must be >= 1 (got %d)" scale
  else k ()

(* ---------------- per-kind execution ---------------- *)

let run_litmus ~budget (l : Job.litmus) : Result.t =
  match find_program l.Job.program with
  | None ->
      bad "unknown litmus program %S (known: %s)" l.Job.program
        (String.concat ", " program_names)
  | Some program -> (
      let models =
        match l.Job.models with
        | [] -> List.map Option.some Pmc_model.Models.all
        | names -> List.map find_model names
      in
      match List.exists Option.is_none models with
      | true ->
          bad "unknown model (known: %s)" (String.concat ", " model_names)
      | false -> (
          let models = List.filter_map Fun.id models in
          let limit = opt_min l.Job.limit budget.max_states in
          try
            Result.Litmus_outcomes
              (List.map
                 (fun m ->
                   let r = Pmc_model.Litmus.enumerate ?limit m program in
                   {
                     Result.program = program.Pmc_model.Lprog.name;
                     model = r.Pmc_model.Litmus.model;
                     outcomes = Pmc_model.Litmus.outcomes_list r;
                     states = r.Pmc_model.Litmus.states_explored;
                     stuck = r.Pmc_model.Litmus.stuck_states;
                   })
                 models)
          with Pmc_model.Litmus.State_space_too_large n ->
            Result.Error
              {
                Result.kind = Result.Budget_exceeded;
                detail =
                  Printf.sprintf "state space exceeded the %d-state budget" n;
              }))

let run_check (c : Job.check) : Result.t =
  match Pmc_compile.Parse.parse c.Job.source with
  | Error errs ->
      Result.Error
        {
          Result.kind = Result.Bad_request;
          detail =
            String.concat "\n"
              (List.map
                 (fun e -> Fmt.str "%s: %a" c.Job.name Pmc_compile.Parse.pp_error e)
                 errs);
        }
  | Ok program ->
      let report = Pmc_compile.Check.check program in
      (* the exact bytes pmc_check prints: check report, Table-II
         expansion, blank line *)
      let text =
        Fmt.str "%a%a@."
          (fun ppf (p, r) -> Pmc_compile.Report.pp_check ppf p r)
          (program, report)
          (fun ppf p ->
            Pmc_compile.Report.pp_program_expansion ppf Pmc_sim.Config.default
              p)
          program
      in
      Result.Check_checked
        {
          Result.name = c.Job.name;
          ok = Pmc_compile.Check.ok report;
          errors =
            List.map Pmc_compile.Check.error_to_string
              report.Pmc_compile.Check.errors;
          warnings =
            List.map Pmc_compile.Check.warning_to_string
              report.Pmc_compile.Check.warnings;
          text;
        }

let run_bench ~budget (b : Job.bench) : Result.t =
  find_backend b.Job.backend @@ fun backend ->
  find_topology b.Job.topology ~cores:b.Job.cores @@ fun topology ->
  check_geometry ~cores:b.Job.cores ~scale:b.Job.scale @@ fun () ->
  if b.Job.repeat < 1 then bad "repeat must be >= 1 (got %d)" b.Job.repeat
  else if b.Job.warmup < 0 then bad "warmup must be >= 0 (got %d)" b.Job.warmup
  else
    let case =
      {
        Pmc_bench.Spec.app = b.Job.app;
        backend;
        topology;
        cores = b.Job.cores;
        scale = b.Job.scale;
        work = Pmc_bench.Spec.Sim;
      }
    in
    match
      Pmc_bench.Measure.run_case ?max_cycles:budget.max_cycles
        ~unbatched:b.Job.unbatched ~warmup:b.Job.warmup ~repeat:b.Job.repeat
        case
    with
    | sample ->
        Result.Bench_measured
          {
            Result.id = Pmc_bench.Spec.case_id case;
            b_ok = sample.Pmc_bench.Measure.ok;
            deterministic = sample.Pmc_bench.Measure.deterministic;
            repeats = sample.Pmc_bench.Measure.repeats;
            metrics = sample.Pmc_bench.Measure.metrics;
          }
    | exception Pmc_bench.Measure.Unknown_app app ->
        bad "unknown app %S (known: %s)" app
          (String.concat ", " Pmc_apps.Registry.names)
    | exception Pmc_sim.Engine.Watchdog n ->
        Result.Error
          {
            Result.kind = Result.Budget_exceeded;
            detail = Printf.sprintf "cycle budget exhausted at cycle %d" n;
          }

let run_chaos ~budget (c : Job.chaos) : Result.t =
  find_backend c.Job.c_backend @@ fun backend ->
  find_topology c.Job.c_topology ~cores:c.Job.c_cores @@ fun topology ->
  check_geometry ~cores:c.Job.c_cores ~scale:c.Job.c_scale @@ fun () ->
  match Pmc_apps.Registry.find c.Job.c_app with
  | None ->
      bad "unknown app %S (known: %s)" c.Job.c_app
        (String.concat ", " Pmc_apps.Registry.names)
  | Some app ->
      (* a budget overrun under injected faults is an acceptable typed
         verdict, not a rejection — run_one folds the watchdog in *)
      Result.Chaos_soaked
        (Pmc_apps.Chaos.run_one ~intensity:c.Job.intensity
           ~model_check:c.Job.model_check ?replay_budget:c.Job.replay_budget
           ?max_cycles:budget.max_cycles ~topology app ~backend
           ~cores:c.Job.c_cores ~scale:c.Job.c_scale ~seed:c.Job.seed)

let run_crash (c : Job.crash) : Result.t =
  find_backend c.Job.x_backend @@ fun backend ->
  find_topology c.Job.x_topology ~cores:c.Job.x_cores @@ fun topology ->
  check_geometry ~cores:c.Job.x_cores ~scale:c.Job.x_scale @@ fun () ->
  if backend <> Pmc.Backends.Farmem then
    bad "chaos-crash requires the farmem backend (got %S)" c.Job.x_backend
  else if c.Job.x_window < 1 then
    bad "window must be >= 1 (got %d)" c.Job.x_window
  else
    match Pmc_apps.Registry.find c.Job.x_app with
    | None ->
        bad "unknown app %S (known: %s)" c.Job.x_app
          (String.concat ", " Pmc_apps.Registry.names)
    | Some app ->
        (* the window travels in the job, so the cut cycle is fixed by
           the encoding — no twin run at execution time *)
        Result.Crash_checked
          (Pmc_apps.Crash.crash_one ~log:c.Job.x_log ~window:c.Job.x_window
             ~model_check:c.Job.x_model_check
             ?replay_budget:c.Job.x_replay_budget ~topology app ~backend
             ~cores:c.Job.x_cores ~scale:c.Job.x_scale ~seed:c.Job.x_seed)

(* ---------------- the entry points ---------------- *)

let run ?(budget = no_budget) (job : Job.t) : Result.t =
  try
    match job with
    | Job.Litmus l -> run_litmus ~budget l
    | Job.Check c -> run_check c
    | Job.Bench b -> run_bench ~budget b
    | Job.Chaos c -> run_chaos ~budget c
    | Job.Crash c -> run_crash c
  with
  | Pmc_sim.Pmc_error.Error ctx ->
      Result.Error
        {
          Result.kind = Result.Runtime_error;
          detail = Pmc_sim.Pmc_error.to_string ctx;
        }
  | e ->
      Result.Error
        { Result.kind = Result.Runtime_error; detail = Printexc.to_string e }

let run_all ?budget ?pool (jobs : Job.t list) : Result.t list =
  match pool with
  | Some pool -> Pmc_par.Pool.map_list_ordered pool jobs ~f:(run ?budget)
  | None -> List.map (run ?budget) jobs
