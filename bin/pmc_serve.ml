(* pmc_serve — persistent checking/simulation service with a verdict
   cache.

     pmc_serve daemon --socket /tmp/pmc.sock --jobs 4
         serve litmus/check/bench/chaos/crash jobs over a Unix-domain socket,
         multiplexed onto a domain pool, with an LRU verdict cache;
     pmc_serve submit litmus --program mp_fence --socket /tmp/pmc.sock
         one job over the socket, rendered exactly as the one-shot CLI
         would render it;
     pmc_serve submit bench --app stencil --local
         the same job executed in-process (no daemon) — the comparator
         CI diffs daemon answers against;
     pmc_serve stats --socket /tmp/pmc.sock
         queue depth, cache hit rate, pool width;
     pmc_serve shutdown --socket /tmp/pmc.sock
         graceful drain: outstanding jobs finish, parked replies are
         delivered, then the daemon exits.

   Exit codes follow the documented convention: 0 success; 2 input,
   budget or runtime error; 3 property failure (discipline errors,
   checksum mismatch, wrong result); 4 formal PMC-model
   inconsistency. *)

open Cmdliner
module Pmc_bench = Root.Pmc_bench
module Pmc_serve = Root.Pmc_serve
module Job = Pmc_jobs.Job
module Jresult = Pmc_jobs.Result
module Run = Pmc_jobs.Run
module Protocol = Pmc_serve.Protocol

let exit_codes_doc =
  Cli.exits ~ok:"the job succeeded."
    ~input:", an exhausted budget, a runtime error or a daemon rejection"
    [
      Cmd.Exit.info 3
        ~doc:
          "property failure: discipline errors, checksum mismatch or wrong \
           result.";
      Cmd.Exit.info 4 ~doc:"formal PMC-model inconsistency.";
    ]

let socket_t =
  Arg.(
    value
    & opt string "/tmp/pmc_serve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let max_cycles_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:"Per-request simulated-cycle budget (tightens the watchdog).")

let max_states_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Per-request state budget for litmus enumeration.")

let budget_of max_cycles max_states = { Run.max_cycles; max_states }

(* ---------------- daemon ---------------- *)

let daemon_cmd socket jobs cache_capacity max_queue max_cycles max_states
    quiet =
  let budget = budget_of max_cycles max_states in
  Pmc_par.Pool.with_pool ~jobs (fun pool ->
      let server =
        Pmc_serve.Server.create ~budget ~cache_capacity ~max_queue pool
      in
      if not quiet then
        Fmt.pr "pmc_serve: listening on %s (width %d, cache %d, queue %d)@."
          socket
          (Pmc_serve.Server.width server)
          cache_capacity max_queue;
      (match Pmc_serve.Daemon.serve ~socket_path:socket server with
      | () -> ()
      | exception Unix.Unix_error (e, op, arg) ->
          Fmt.epr "pmc_serve: %s %s: %s@." op arg (Unix.error_message e);
          exit 2);
      if not quiet then
        let s = Pmc_serve.Server.stats server in
        Fmt.pr
          "pmc_serve: drained; %d jobs completed, %d rejected, %d/%d cache \
           hits@."
          s.Protocol.completed s.Protocol.rejected s.Protocol.cache_hits
          (s.Protocol.cache_hits + s.Protocol.cache_misses))

(* ---------------- submit ---------------- *)

let connect socket =
  match Pmc_serve.Client.connect socket with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "pmc_serve: cannot connect to %s: %s@." socket
        (Unix.error_message e);
      exit 2

(* Run [job] locally or over the socket and render the result exactly
   as the corresponding one-shot CLI would; exit per the 0/2/3/4
   convention. *)
let submit_job socket local no_wait max_cycles max_states job =
  let budget = budget_of max_cycles max_states in
  if local then begin
    let r = Run.run ~budget job in
    Fmt.pr "%a" Jresult.pp r;
    (match r with
    | Jresult.Error e -> Fmt.epr "pmc_serve: %s@." e.Jresult.detail
    | _ -> ());
    exit (Jresult.exit_code r)
  end
  else
    Pmc_serve.Client.with_connection socket @@ fun c ->
    match
      Pmc_serve.Client.request c
        (Protocol.Submit { job; budget; wait = not no_wait })
    with
    | Protocol.Submitted { id; cached } ->
        Fmt.pr "submitted %d%s@." id (if cached then " (cached)" else "")
    | Protocol.Job_result { result; _ } ->
        Fmt.pr "%a" Jresult.pp result;
        (match result with
        | Jresult.Error e -> Fmt.epr "pmc_serve: %s@." e.Jresult.detail
        | _ -> ());
        exit (Jresult.exit_code result)
    | Protocol.Rejected { reason } ->
        Fmt.epr "pmc_serve: rejected: %s@." reason;
        exit 2
    | Protocol.Protocol_error { reason } ->
        Fmt.epr "pmc_serve: protocol error: %s@." reason;
        exit 2
    | _ ->
        Fmt.epr "pmc_serve: unexpected response@.";
        exit 2

let local_t =
  Arg.(
    value & flag
    & info [ "local" ]
        ~doc:
          "Execute in-process instead of over the socket — the one-shot \
           comparator the daemon's answers are byte-identical to.")

let no_wait_t =
  Arg.(
    value & flag
    & info [ "no-wait" ]
        ~doc:"Print the job ticket instead of waiting for the result.")

(* ---------------- stats / shutdown ---------------- *)

let stats_cmd socket json =
  Pmc_serve.Client.with_connection socket @@ fun c ->
  match Pmc_serve.Client.request c Protocol.Stats with
  | Protocol.Stats_reply s ->
      if json then
        Fmt.pr "%s@." (Pmc_bench.Json.to_compact (Protocol.stats_to_json s))
      else begin
        Fmt.pr "width:         %d@." s.Protocol.width;
        Fmt.pr "queue depth:   %d (%d running)@." s.Protocol.queue_depth
          s.Protocol.running;
        Fmt.pr "submitted:     %d@." s.Protocol.submitted;
        Fmt.pr "completed:     %d@." s.Protocol.completed;
        Fmt.pr "rejected:      %d@." s.Protocol.rejected;
        Fmt.pr "cache:         %d hits, %d misses, %d entries@."
          s.Protocol.cache_hits s.Protocol.cache_misses
          s.Protocol.cache_entries;
        if s.Protocol.draining then Fmt.pr "draining@."
      end
  | _ ->
      Fmt.epr "pmc_serve: unexpected response@.";
      exit 2

let shutdown_cmd socket =
  let c = connect socket in
  (match Pmc_serve.Client.request c Protocol.Shutdown with
  | Protocol.Shutdown_started { pending } ->
      Fmt.pr "shutting down; %d job(s) draining@." pending
  | _ ->
      Fmt.epr "pmc_serve: unexpected response@.";
      exit 2);
  Pmc_serve.Client.close c

(* ---------------- bench-client ---------------- *)

(* Load generator: submit a round-robin batch of litmus jobs in wait
   mode over one connection and report how many came from the verdict
   cache.  Repeat a run against a warm daemon and every request should
   be a hit. *)
let bench_client_cmd socket requests model =
  Pmc_serve.Client.with_connection socket @@ fun c ->
  let programs = Array.of_list Run.program_names in
  let fresh = ref 0 and cached = ref 0 and failed = ref 0 in
  let tickets = ref [] in
  for i = 0 to requests - 1 do
    let program = programs.(i mod Array.length programs) in
    let job =
      Job.Litmus { Job.program; models = [ model ]; limit = None }
    in
    match
      Pmc_serve.Client.request c
        (Protocol.Submit { job; budget = Run.no_budget; wait = false })
    with
    | Protocol.Submitted { id; cached = true } ->
        incr cached;
        tickets := id :: !tickets
    | Protocol.Submitted { id; cached = false } ->
        incr fresh;
        tickets := id :: !tickets
    | Protocol.Rejected { reason } ->
        incr failed;
        Fmt.epr "rejected: %s@." reason
    | _ -> incr failed
  done;
  (* collect every ticket so the daemon is warm and idle afterwards *)
  List.iter
    (fun id ->
      match
        Pmc_serve.Client.request c (Protocol.Result_of { id; wait = true })
      with
      | Protocol.Job_result _ -> ()
      | _ -> incr failed)
    (List.rev !tickets);
  Fmt.pr "%d requests: %d fresh, %d cached, %d failed@." requests !fresh
    !cached !failed;
  match Pmc_serve.Client.request c Protocol.Stats with
  | Protocol.Stats_reply s ->
      Fmt.pr "daemon: %d completed, %d/%d cache hits, queue depth %d@."
        s.Protocol.completed s.Protocol.cache_hits
        (s.Protocol.cache_hits + s.Protocol.cache_misses)
        s.Protocol.queue_depth;
      if !failed > 0 then exit 2
  | _ ->
      Fmt.epr "pmc_serve: unexpected response@.";
      exit 2

(* ---------------- cmdliner plumbing ---------------- *)

let daemon_c =
  let cache_t =
    Arg.(
      value & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"LRU verdict cache capacity (entries).")
  in
  let max_queue_t =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission control: reject submissions beyond $(docv) \
             outstanding jobs.")
  in
  let quiet_t =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No startup banner.")
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Serve jobs over a Unix-domain socket until shutdown"
       ~exits:(Cli.exits ~input:", or a socket that could not be bound" []))
    Term.(
      const daemon_cmd $ socket_t $ Cli.jobs $ cache_t $ max_queue_t
      $ max_cycles_t $ max_states_t $ quiet_t)

let submit_kind name ~doc job =
  Cmd.v
    (Cmd.info name ~doc ~exits:exit_codes_doc)
    Term.(
      const submit_job $ socket_t $ local_t $ no_wait_t $ max_cycles_t
      $ max_states_t $ job)

let litmus_job =
  let program_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "program"; "p" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Litmus program; one of: %s."
               (String.concat ", " Run.program_names)))
  in
  let models_t =
    Arg.(
      value & opt_all string []
      & info [ "model"; "m" ] ~docv:"MODEL"
          ~doc:
            "Model to enumerate (repeatable; default all): sc, pc, cc, ec, \
             slow, pmc.")
  in
  let limit_t =
    Arg.(
      value & opt (some int) None
      & info [ "limit" ] ~docv:"N" ~doc:"State-space enumeration limit.")
  in
  Term.(
    const (fun program models limit ->
        Job.Litmus { Job.program; models; limit })
    $ program_t $ models_t $ limit_t)

let check_job =
  let builtin_t =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("fig6", Pmc_compile.Ir.fig6);
                  ("fig6_missing_fence", Pmc_compile.Ir.fig6_missing_fence);
                ]))
          None
      & info [ "builtin" ] ~docv:"NAME"
          ~doc:"Check a built-in program: fig6 or fig6_missing_fence.")
  in
  let file_t =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Annotated program file to check.")
  in
  let make builtin file =
    match (builtin, file) with
    | Some p, None ->
        Ok
          (Job.Check
             {
               Job.name = p.Pmc_compile.Ir.pname;
               source = Pmc_compile.Parse.print p;
             })
    | None, Some f -> (
        match In_channel.with_open_text f In_channel.input_all with
        | source -> Ok (Job.Check { Job.name = Filename.basename f; source })
        | exception Sys_error msg -> Error ("cannot read " ^ f ^ ": " ^ msg))
    | _ -> Error "exactly one of FILE or --builtin is required"
  in
  Term.term_result' ~usage:true Term.(const make $ builtin_t $ file_t)

let bench_job =
  let make app backend cores topology scale unbatched warmup repeat =
    Job.Bench
      {
        Job.app = app.Pmc_apps.Runner.name;
        backend = Pmc.Backends.to_string backend;
        topology = Pmc_sim.Topology.to_string topology;
        cores;
        scale;
        unbatched;
        warmup;
        repeat;
      }
  in
  let cores = Cli.cores ~default:8 in
  Term.(
    const make $ Cli.app ~default:"stencil" $ Cli.backend ~default:"dsm"
    $ cores $ Cli.topology cores $ Cli.scale ~default:16 $ Cli.unbatched
    $ Cli.warmup ~default:0 $ Cli.repeat ~default:1)

let submit_c =
  Cmd.group
    (Cmd.info "submit"
       ~doc:
         "Submit one job (over the socket, or in-process with $(b,--local))"
       ~exits:exit_codes_doc)
    [
      submit_kind "litmus" ~doc:"Submit a litmus enumeration job" litmus_job;
      submit_kind "check" ~doc:"Submit a discipline-check job" check_job;
      submit_kind "bench" ~doc:"Submit a benchmark case job" bench_job;
      submit_kind "chaos" ~doc:"Submit a seeded chaos-run job" Cli.chaos_job;
      submit_kind "crash" ~doc:"Submit a power-cut crash-recovery job"
        Cli.crash_job;
    ]

let client_exits =
  Cli.exits ~input:", an unreachable daemon or an unexpected response" []

let stats_c =
  let json_t =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the stats object as JSON.")
  in
  Cmd.v
    (Cmd.info "stats" ~exits:client_exits
       ~doc:"Query queue depth and cache hit rate")
    Term.(const stats_cmd $ socket_t $ json_t)

let shutdown_c =
  Cmd.v
    (Cmd.info "shutdown" ~exits:client_exits
       ~doc:"Gracefully drain and stop the daemon")
    Term.(const shutdown_cmd $ socket_t)

let bench_client_c =
  let requests_t =
    Arg.(
      value & opt int 24
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Number of submissions.")
  in
  let model_t =
    Arg.(
      value & opt string "pmc"
      & info [ "model"; "m" ] ~doc:"Model to enumerate on each request.")
  in
  Cmd.v
    (Cmd.info "bench-client" ~exits:client_exits
       ~doc:"Hammer a daemon with litmus jobs and report the cache hit rate")
    Term.(const bench_client_cmd $ socket_t $ requests_t $ model_t)

let main_c =
  Cmd.group
    (Cmd.info "pmc_serve" ~version:"%%VERSION%%"
       ~doc:
         "Persistent checking/simulation service with a verdict cache"
       ~exits:exit_codes_doc)
    [ daemon_c; submit_c; stats_c; shutdown_c; bench_client_c ]

let () = Cli.eval main_c
