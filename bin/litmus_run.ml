(* litmus_run — enumerate litmus-test outcome sets under the operational
   semantics of each memory model, and print the dependency graphs of the
   paper's figures.

     litmus_run                   # all standard programs, all models
     litmus_run -p mp_fence       # one program (repeatable)
     litmus_run --figures         # Fig. 2-5 dependency graphs
     litmus_run --drf [-p sb]     # data-race-freedom analysis

   Enumeration goes through the shared Pmc_jobs layer — the same code
   path the pmc_serve daemon runs — so this CLI and a daemon answer are
   byte-identical.  Exit codes follow the documented convention:
   0 success; 2 input, budget or runtime error; 3 property failure;
   4 formal PMC-model inconsistency (the latter two do not arise from
   pure enumeration). *)

open Cmdliner
open Pmc_model

let print_graph title exec =
  Fmt.pr "--- %s ---@." title;
  Execution.iter_ops exec (fun o -> Fmt.pr "  %a@." Op.pp o);
  Fmt.pr "  transitively reduced orderings:@.";
  List.iter
    (fun ({ src; kind; dst } : Execution.edge) ->
      Fmt.pr "    %a  %s  %a@." Op.pp (Execution.op exec src)
        (Execution.edge_kind_to_string kind)
        Op.pp (Execution.op exec dst))
    (Order.transitive_reduction Order.Full exec);
  Fmt.pr "@."

let print_figures () =
  (* Fig. 2 *)
  let e = Execution.create ~procs:1 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:2);
  print_graph "Fig. 2: program order of two writes" e;
  (* Fig. 3 *)
  let e = Execution.create ~procs:1 ~locs:1 () in
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.read e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:2);
  print_graph "Fig. 3: local order of a read" e;
  (* Fig. 4 *)
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:1);
  ignore (Execution.write e ~proc:1 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:1 ~loc:0);
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.read e ~proc:0 ~loc:0 ~value:2);
  ignore (Execution.release e ~proc:0 ~loc:0);
  print_graph "Fig. 4: exclusive access with two processes" e;
  (* Fig. 5 *)
  let e = Execution.create ~procs:2 ~locs:2 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:42);
  ignore (Execution.fence e ~proc:0);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:0 ~loc:1);
  ignore (Execution.write e ~proc:0 ~loc:1 ~value:1);
  ignore (Execution.release e ~proc:0 ~loc:1);
  ignore (Execution.read e ~proc:1 ~loc:1 ~value:1);
  ignore (Execution.fence e ~proc:1);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  ignore (Execution.read e ~proc:1 ~loc:0 ~value:42);
  ignore (Execution.release e ~proc:1 ~loc:0);
  print_graph "Fig. 5: multi-core communication (v0 = X, v1 = f)" e

(* An exhausted trace or state budget leaves that program without a
   verdict: it is reported on stderr and the run exits 2. *)
let print_drf pool programs =
  (* race analysis per program is independent work: compute in parallel,
     print in program order *)
  let results =
    Pmc_par.Pool.map_list_ordered pool programs ~f:(fun p ->
        match Drf.find_race p with
        | None -> `Drf (Drf.sc_equivalent p)
        | Some r -> `Racy r
        | exception Drf.Too_many_traces n ->
            `Budget (Printf.sprintf "more than %d SC traces" n)
        | exception Litmus.State_space_too_large n ->
            `Budget (Printf.sprintf "more than %d states" n))
  in
  List.fold_left2
    (fun code p result ->
      match result with
      | `Drf sc_eq ->
          Fmt.pr "%-32s data-race free; PMC == SC: %b@." p.Lprog.name sc_eq;
          code
      | `Racy r ->
          Fmt.pr "%-32s racy: %a@." p.Lprog.name Drf.pp_race r;
          code
      | `Budget what ->
          Fmt.epr "%s: no verdict: %s@." p.Lprog.name what;
          2)
    0 programs results

let print_dot () =
  let e = Execution.create ~procs:2 ~locs:2 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:42);
  ignore (Execution.fence e ~proc:0);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:0 ~loc:1);
  ignore (Execution.write e ~proc:0 ~loc:1 ~value:1);
  ignore (Execution.release e ~proc:0 ~loc:1);
  ignore (Execution.read e ~proc:1 ~loc:1 ~value:1);
  ignore (Execution.fence e ~proc:1);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  ignore (Execution.read e ~proc:1 ~loc:0 ~value:42);
  ignore (Execution.release e ~proc:1 ~loc:0);
  print_string (Dot.of_execution e)

(* --stats: per-(program, model) exploration statistics with host
   timing.  This measures the enumeration engine itself, so it calls
   [Litmus.enumerate] directly rather than going through the jobs layer
   (whose output is a wire contract and carries no timing).  The cells
   are independent, so they fan out over the pool and each times its own
   enumeration; rows print in cell order, and every non-timing column is
   deterministic at any --jobs width.  The per-cell times overlap once
   the cells run in parallel, so the total line times the whole fan-out
   once and derives its rate from that wall time.  The state and stuck
   counts are pinned for the default run by test/litmus_corpus.expected,
   where a key-packing bug would show as a changed count. *)
let print_stats pool programs =
  let cells =
    List.concat_map
      (fun p -> List.map (fun m -> (p, m)) Models.all)
      programs
  in
  let wall0 = Unix.gettimeofday () in
  let rows =
    Pmc_par.Pool.map_list_ordered pool cells ~f:(fun ((p : Lprog.t), m) ->
        let t0 = Unix.gettimeofday () in
        let r = Litmus.enumerate m p in
        (p, r, Unix.gettimeofday () -. t0))
  in
  let wall = Unix.gettimeofday () -. wall0 in
  Fmt.pr "%-28s %-24s %9s %6s %8s %12s@." "program" "model" "states"
    "stuck" "host s" "states/s";
  let total_states = ref 0 in
  List.iter
    (fun ((p : Lprog.t), (r : Litmus.result), dt) ->
      total_states := !total_states + r.Litmus.states_explored;
      Fmt.pr "%-28s %-24s %9d %6d %8.3f %12.0f@." p.Lprog.name
        r.Litmus.model r.Litmus.states_explored r.Litmus.stuck_states dt
        (if dt > 0.0 then float_of_int r.Litmus.states_explored /. dt
         else 0.0))
    rows;
  Fmt.pr "total: %d states in %.3f s wall (%.0f states/s)@." !total_states
    wall
    (if wall > 0.0 then float_of_int !total_states /. wall else 0.0)

(* The default mode: one Pmc_jobs litmus job per program (all models),
   fanned over the pool; sections print in program order, so the output
   is identical at any width — and to the pmc_serve daemon's answers. *)
let print_programs pool programs =
  let jobs =
    List.map
      (fun (p : Lprog.t) ->
        Pmc_jobs.Job.Litmus
          { Pmc_jobs.Job.program = p.Lprog.name; models = []; limit = None })
      programs
  in
  let results = Pmc_jobs.Run.run_all ~pool jobs in
  List.iter (fun r -> Fmt.pr "%a" Pmc_jobs.Result.pp r) results;
  Pmc_jobs.Result.exit_code_all results

(* Every mode checks the [-p] names first, so a typo is an input error
   even where the selection is not used. *)
let main figures drf dot stats programs jobs =
  let selection =
    match programs with
    | [] -> Ok Lprog.all_standard
    | names ->
        let missing =
          List.filter (fun n -> Pmc_jobs.Run.find_program n = None) names
        in
        if missing <> [] then Error missing
        else Ok (List.filter_map Pmc_jobs.Run.find_program names)
  in
  match selection with
  | Error missing ->
      List.iter
        (fun n ->
          Fmt.epr "unknown program %S (known: %s)@." n
            (String.concat ", " Pmc_jobs.Run.program_names))
        missing;
      2
  | Ok _ when figures ->
      print_figures ();
      0
  | Ok _ when dot ->
      print_dot ();
      0
  | Ok selected ->
      Pmc_par.Pool.with_pool ~jobs (fun pool ->
          if drf then print_drf pool selected
          else if stats then (print_stats pool selected; 0)
          else print_programs pool selected)

let cmd =
  Cmd.v
    (Cmd.info "litmus_run" ~doc:"Memory-model litmus tests and figures"
       ~exits:
         (Cli.exits ~ok:"enumeration (or analysis) succeeded."
            ~input:
              ", an unknown program name or an exhausted budget (a \
               $(b,--drf) program with too many SC traces or states)"
            [
              Cmd.Exit.info 3 ~doc:"property failure (reserved; unused here).";
              Cmd.Exit.info 4
                ~doc:"formal PMC-model inconsistency (reserved; unused here).";
            ]))
    Term.(
      const Stdlib.exit
      $ (const main
      $ Arg.(value & flag & info [ "figures" ] ~doc:"Print Fig. 2-5 graphs.")
      $ Arg.(value & flag & info [ "drf" ] ~doc:"Data-race analysis.")
      $ Arg.(value & flag & info [ "dot" ] ~doc:"Fig. 5 as Graphviz dot.")
      $ Arg.(
          value & flag
          & info [ "stats" ]
              ~doc:
                "Print exploration statistics per (program, model) cell: \
                 states explored, stuck states, host time and states \
                 per second.  With $(b,--jobs) N \
                 the cells fan out over the pool, each timing its own \
                 enumeration; all non-timing columns are identical at \
                 any width.")
      $ Arg.(
          value & opt_all string []
          & info [ "program"; "p" ] ~docv:"NAME"
              ~doc:
                "Enumerate (with $(b,--drf), analyse) only $(docv) \
                 (repeatable).  Slugs like \
                 $(b,mp_fence), $(b,sb), $(b,iriw) or full descriptive \
                 names; default: every standard program.")
      $ Cli.jobs))

let () = Cli.eval cmd
