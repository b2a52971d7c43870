(* Prints every core's per-category cycles for runs that end while cores
   are parked on locks: a watchdog cut ([max_cycles]) and seeded power
   cuts ([Config.crash]) of lock-heavy apps on the 32-tile default
   machine at workload seed 1.

   Stall accounting of a parked lock waiter is the engine's business,
   not the waiter's: whatever the engine defers while a waiter sits in a
   gang must be settled when an exception leaves [Engine.run], so these
   totals equal the plain polling loop's.  The committed
   parked_golden.expected was printed by the tree whose scheduler still
   charged every failed re-check as it happened; regenerate it only for
   a change that is meant to alter timing:

     dune build @all && _build/default/test/parked_digest.exe \
       > test/parked_golden.expected *)

open Pmc_sim

let cfg = { Config.default with seed = 1 }

let run ~title ~cfg (app_name, backend, scale) =
  let app = Option.get (Pmc_apps.Registry.find app_name) in
  let machine = ref None in
  let on_api api = machine := Some (Pmc.Api.machine api) in
  let outcome =
    match Pmc_apps.Runner.run ~cfg ~on_api app ~backend ~scale with
    | _ -> "completed"
    | exception Engine.Watchdog c -> Printf.sprintf "watchdog@%d" c
    | exception Engine.Power_cut c -> Printf.sprintf "power_cut@%d" c
  in
  let m = Option.get !machine in
  Printf.printf "%s/%s/s%d %s: %s wall=%d\n" app_name
    (Pmc.Backends.to_string backend) scale title outcome
    (Engine.wall_time (Machine.engine m));
  let stats = Machine.stats m in
  for c = 0 to cfg.Config.cores - 1 do
    let s = Stats.core stats c in
    Printf.printf "  core %2d %s\n" c
      (String.concat ";"
         (List.map (fun k -> string_of_int (Stats.get s k)) Stats.categories))
  done

let streaming = ("streaming", Pmc.Backends.Farmem, 8)
let histogram = ("histogram", Pmc.Backends.Farmem, 16)
let mailbox = ("mailbox", Pmc.Backends.Nocc, 4)

let () =
  Printf.printf "categories: %s\n"
    (String.concat ";" (List.map Stats.category_name Stats.categories));
  List.iter
    (fun (case, max_cycles) ->
      run
        ~title:(Printf.sprintf "max_cycles=%d" max_cycles)
        ~cfg:{ cfg with max_cycles } case)
    [ (streaming, 300_000); (histogram, 20_000); (mailbox, 3_000) ];
  List.iter
    (fun (case, window, seeds) ->
      List.iter
        (fun seed ->
          run
            ~title:(Printf.sprintf "crash window=%d seed=%d" window seed)
            ~cfg:(Config.crash ~window ~seed cfg) case)
        seeds)
    [ (streaming, 600_000, [ 1; 2; 3; 4 ]); (histogram, 80_000, [ 1; 2; 3 ]) ]
