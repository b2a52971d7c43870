(* Prints a deterministic digest of simulator behaviour — wall cycles,
   checksums, every Stats counter, the per-category cycle split and model
   replay verdicts — over a matrix of (app, back-end, cores, chaos) runs,
   then a byte-access kernel on every back-end.

   The first 64 rows (the seed's four back-ends) were generated by the
   pre-flat-core simulator (the seed layout); the runtest diff proves the
   flat hot core (Bigarray memories, arena scheduler, no-sink probe fast
   path) is cycle- and value-identical to it, disarmed and armed.  The
   seqcst and farmem rows and the byte-kernel rows were added later, from
   the tree just before byte and word accesses shared one timed path, so
   they pin that refactor.  Regenerate only for a change that is *meant*
   to alter timing:

     dune build @all && _build/default/test/flat_digest.exe \
       > test/flat_golden.expected *)

open Pmc_sim

let cases =
  [ ("streaming", 8); ("stencil", 4); ("histogram", 16); ("reduce", 128) ]

(* the seed's four back-ends, then the two that joined later, so the
   seed rows keep their place at the top of the golden *)
let backends =
  [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm ]

let later_backends = [ Pmc.Backends.Seqcst; Pmc.Backends.Farmem ]

(* chaos seed 7 arms every fault class at the default intensity *)
let planes = [ ("plain", None); ("chaos7", Some 7) ]

let summary_fields (s : Stats.summary) =
  let cats =
    String.concat ";"
      (List.map
         (fun c -> string_of_int (Stats.category_cycles s c))
         Stats.categories)
  in
  Printf.sprintf
    "instr=%d flits=%d writes=%d flushes=%d acq=%d xfer=%d dmiss=%d dhit=%d \
     imiss=%d cyc=[%s]"
    s.Stats.instructions s.Stats.noc_flits s.Stats.noc_writes
    s.Stats.flushes s.Stats.lock_acquires s.Stats.lock_transfers
    s.Stats.dcache_misses s.Stats.dcache_hits s.Stats.icache_misses cats

let digest_run ~app_name ~scale ~backend ~cores ~plane_name ~chaos ~replay =
  let app =
    match Pmc_apps.Registry.find app_name with
    | Some a -> a
    | None -> failwith ("unknown app " ^ app_name)
  in
  let cfg = { Config.small with cores } in
  let cfg = match chaos with None -> cfg | Some seed -> Config.chaos ~seed cfg in
  let recorder = ref None in
  let on_api =
    if replay then
      Some (fun api -> recorder := Some (Pmc_trace.Recorder.attach api))
    else None
  in
  let r = Pmc_apps.Runner.run ~cfg ?on_api app ~backend ~scale in
  let verdict =
    match !recorder with
    | None -> ""
    | Some rec_ ->
        if Pmc_trace.Recorder.dropped_total rec_ > 0 then " verdict=dropped"
        else
          let report =
            Pmc_trace.Replay.check ~cores (Pmc_trace.Recorder.events rec_)
          in
          if Pmc_model.History.ok report then " verdict=consistent"
          else " verdict=violation"
  in
  Printf.printf "%s/%s/c%d/s%d/%s wall=%d sum=%Ld ref=%Ld %s%s\n" app_name
    (Pmc.Backends.to_string backend)
    cores scale plane_name r.Pmc_apps.Runner.wall r.Pmc_apps.Runner.checksum
    r.Pmc_apps.Runner.reference
    (summary_fields r.Pmc_apps.Runner.summary)
    verdict

let byte_kernel ~backend ~plane_name ~chaos =
  let k = Byte_kernel.run ?chaos ~record:(chaos = None) backend in
  (* the event count pins what the API emits; the trace tests pin the
     kernel's replay verdict, plain and armed, on every back-end *)
  let events =
    match k.Byte_kernel.recorder with
    | None -> ""
    | Some rec_ ->
        Printf.sprintf " events=%d"
          (List.length (Pmc_trace.Recorder.events rec_))
  in
  Printf.printf "bytes/%s/c%d/%s wall=%d %s %s vals=[%s] final=%s%s\n"
    (Pmc.Backends.to_string backend)
    Byte_kernel.cores plane_name
    (Engine.wall_time (Machine.engine k.Byte_kernel.machine))
    k.Byte_kernel.outcome
    (summary_fields (Stats.summarize (Machine.stats k.Byte_kernel.machine)))
    (String.concat " " (Array.to_list k.Byte_kernel.seen))
    (String.concat ","
       (List.init 4 (fun w ->
            Printf.sprintf "%08lx"
              (Pmc.Api.peek k.Byte_kernel.api k.Byte_kernel.lanes w))))
    events

let matrix backends =
  List.iter
    (fun (app_name, scale) ->
      List.iter
        (fun backend ->
          List.iter
            (fun cores ->
              List.iter
                (fun (plane_name, chaos) ->
                  (* replay the trace through the model on the disarmed
                     4-core runs — enough to pin verdicts without tracing
                     every cell of the matrix *)
                  let replay = chaos = None && cores = 4 in
                  digest_run ~app_name ~scale ~backend ~cores ~plane_name
                    ~chaos ~replay)
                planes)
            [ 4; 8 ])
        backends)
    cases

let () =
  matrix backends;
  matrix later_backends;
  List.iter
    (fun backend ->
      List.iter
        (fun (plane_name, chaos) -> byte_kernel ~backend ~plane_name ~chaos)
        planes)
    Pmc.Backends.all
