(* The end-to-end benchmark runner.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--serve-exe PATH] [--root DIR]

   One process: set up and run the workload's fixed unit of work, again
   and again until S seconds have passed; setup_s and wall_s are medians
   over the repeats.  Every
   output is checked; failures are counted, never fatal.  Human-readable
   lines come first; the last line is the JSON result.

   With --trace 1 the run is the traced run: the first half of the
   interval repeats the unit untraced, the second half traced, with spans
   around every call into a layer, a probe sink on every simulation and
   Gc minor-word deltas.  Each traced unit is followed by the Mini unit of
   every other workload, so every layer is measured on every workload.
   The per-layer metrics are medians over the traced units; the spans go
   to e2ebench/_out/spans-W-N.json (Chrome trace-event format). *)

open E2e
module W = Workloads

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2ebench: " ^ m);
      exit 2)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  serve_exe : string;
  root : string;
}

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> go { a with seed = s } rest
        | None -> die "--seed takes an integer, got %S" v)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { a with seconds = s } rest
        | _ -> die "--seconds takes a positive number, got %S" v)
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--serve-exe" :: v :: rest -> go { a with serve_exe = v } rest
    | "--root" :: v :: rest -> go { a with root = v } rest
    | arg :: _ -> die "unexpected argument %S" arg
    | [] -> a
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false;
        serve_exe = "_build/default/bin/pmc_serve.exe"; root = "." }
      (List.tl (Array.to_list argv))
  in
  if not (List.mem a.workload W.names) then
    die "--workload must be one of %s" (String.concat ", " W.names);
  a

let median l = Tally.median (Array.of_list l)

(* Set up and run the unit until [seconds] have passed (at least once);
   returns the set-up times and the units.  Each repeat starts from a
   collected heap, so garbage of the previous one is not charged to it. *)
let run_for seconds (p : W.prepared) run_unit =
  let t0 = Span.now () in
  let rec go setups units =
    Gc.full_major ();
    let setups = p.setup () :: setups in
    let units = run_unit () :: units in
    if Span.now () -. t0 >= seconds then (setups, List.rev units)
    else go setups units
  in
  go [] []

let self_rss_kb () =
  Option.value ~default:0 (W.vm_hwm_kb (string_of_int (Unix.getpid ())))

(* Every unit of a run does the same work, so its fingerprint must
   repeat exactly. *)
let check_repeatable tally (units : W.unit_result list) =
  match units with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun (u : W.unit_result) ->
          Tally.check tally ~what:"unit fingerprint differs between repeats"
            (u.fingerprint = first.fingerprint && u.sim_cycles = first.sim_cycles))
        rest

(* Host seconds of each operation position, median over units. *)
let op_medians (units : W.unit_result list) =
  let n =
    List.fold_left (fun m (u : W.unit_result) -> min m (Array.length u.ops))
      max_int units
  in
  Array.init n (fun i ->
      median (List.map (fun (u : W.unit_result) -> u.ops.(i)) units))

let figures (units : W.unit_result list) =
  match units with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _, unit) ->
          let v =
            median
              (List.map
                 (fun (u : W.unit_result) ->
                   let _, v, _ =
                     List.find (fun (n, _, _) -> n = name) u.figures
                   in
                   v)
                 units)
          in
          (name, v, unit))
        first.figures

let end_to_end ~setups (units : W.unit_result list) =
  let walls = List.map (fun (u : W.unit_result) -> u.wall) units in
  let wall_s = median walls in
  let setup_s =
    median setups
    +. median (List.map (fun (u : W.unit_result) -> u.daemon_setup) units)
  in
  let rss_kb =
    match List.filter_map (fun (u : W.unit_result) -> u.daemon_rss_kb) units with
    | [] -> self_rss_kb ()
    | l -> int_of_float (median (List.map float l))
  in
  let sim_cycles = float (List.hd units).sim_cycles in
  [ ("setup_s", setup_s);
    ("wall_s", wall_s);
    ("peak_rss_mb", float rss_kb /. 1024.);
    ("sim_cycles", sim_cycles);
    ("sim_cycles_per_s", sim_cycles /. wall_s) ]

let print_lines tag catalogue values =
  List.iter
    (fun (name, unit) ->
      Printf.printf "%s %-34s %18.6f %s\n" tag name
        (Option.value ~default:0. (List.assoc_opt name values))
        unit)
    catalogue

let print_common (a : args) (tally : Tally.t) (units : W.unit_result list) =
  List.iter
    (fun (name, v, unit) -> Printf.printf "figure %-34s %18.6f %s\n" name v unit)
    (figures units);
  let ops = op_medians units in
  if ops <> [||] then
    Printf.printf "figure %-34s %18.6f ms (n=%d operations)\n" "op_p50_ms"
      (1e3 *. Tally.median ops) (Array.length ops);
  let pooled =
    Array.concat (List.map (fun (u : W.unit_result) -> u.ops) units)
  in
  if pooled <> [||] then begin
    let p, v = Tally.tail pooled ~want:950 in
    Printf.printf "figure %-34s %18.6f ms (p%.1f of n=%d operations)\n"
      "op_tail_ms" (1e3 *. v) (float p /. 10.) (Array.length pooled)
  end;
  Printf.printf "figure %-34s %18.6f ratio (%d failed of %d attempted)\n"
    "fail_frac" (Tally.fail_frac tally) tally.failed tally.attempted;
  (match units with
  | u :: _ ->
      Printf.printf "fingerprint %s seed=%d %s units=%d\n" a.workload a.seed
        u.fingerprint (List.length units)
  | [] -> ());
  List.iteri
    (fun i r -> if i < 20 then prerr_endline ("e2ebench: FAILED " ^ r))
    (List.rev tally.reasons)

(* The traced run's per-layer snapshot of one traced unit. *)
let snapshot () =
  let get = Span.get in
  let hits = get "serve.cache_hits" and misses = get "serve.cache_misses" in
  List.map
    (fun (name, _) ->
      let v =
        match name with
        | "engine.host_ns_per_cycle" ->
            let c = get "engine.sim_cycles" in
            if c > 0. then get "engine.host_s" *. 1e9 /. c else 0.
        | "serve.hit_ratio" ->
            if hits +. misses > 0. then hits /. (hits +. misses) else 0.
        | _ -> get name
      in
      (name, v))
    Metrics.per_layer

let () =
  let a = parse Sys.argv in
  if not (Sys.file_exists a.serve_exe) then
    die "pmc_serve binary not found at %s" a.serve_exe;
  let out_dir = Filename.concat a.root "e2ebench/_out" in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let tally = Tally.create () in
  let ctx =
    { W.tally; seed = a.seed; serve_exe = a.serve_exe; root = a.root;
      work_dir = out_dir }
  in
  let prepared = W.prepare ctx a.workload W.Full in
  Printf.printf "e2ebench workload=%s seed=%d seconds=%g trace=%d\n%!"
    a.workload a.seed a.seconds (Bool.to_int a.trace);
  if not a.trace then begin
    let setups, units = run_for a.seconds prepared prepared.run_unit in
    check_repeatable tally units;
    let values = end_to_end ~setups units in
    print_lines "metric" Metrics.end_to_end values;
    print_common a tally units;
    print_endline
      (Metrics.result_line ~tally ~catalogue:Metrics.end_to_end values)
  end
  else begin
    let tour =
      List.filter_map
        (fun w -> if w = a.workload then None else Some (W.prepare ctx w W.Mini))
        W.names
    in
    let _, untraced = run_for (a.seconds /. 2.) prepared prepared.run_unit in
    Span.enabled := true;
    let traced = ref [] in
    let _, snaps =
      run_for (a.seconds /. 2.) prepared (fun () ->
          Span.reset_counters ();
          let u = prepared.run_unit () in
          traced := u :: !traced;
          List.iter (fun (p : W.prepared) -> ignore (p.run_unit ())) tour;
          snapshot ())
    in
    Span.enabled := false;
    (* tracing must not change what is simulated *)
    check_repeatable tally (untraced @ !traced);
    let median_wall l = median (List.map (fun (u : W.unit_result) -> u.wall) l) in
    let overhead = median_wall !traced -. median_wall untraced in
    let values =
      List.map
        (fun (name, _) ->
          if name = "tracing.overhead_s" then (name, overhead)
          else (name, median (List.map (List.assoc name) snaps)))
        Metrics.per_layer
    in
    let spans =
      Filename.concat out_dir
        (Printf.sprintf "spans-%s-%d.json" a.workload a.seed)
    in
    Span.write_chrome spans;
    print_lines "layer" Metrics.per_layer values;
    Printf.printf "spans %s (%d spans, %d traced units)\n" spans
      (List.length !Span.finished) (List.length snaps);
    print_common a tally untraced;
    print_endline (Metrics.result_line ~tally ~catalogue:Metrics.per_layer values)
  end
