(* A job: one self-contained unit of checking/simulation work, the
   common currency of the one-shot CLIs and the pmc_serve daemon.

   Each variant captures *by value* everything its run depends on — the
   litmus program name, the annotated source text, the full case
   geometry, the chaos seed — so [Run.run] is a pure function of the
   job (plus the budget) and a job's canonical JSON encoding is a sound
   cache key: two equal encodings denote the same verdict, bit for bit.
   Nothing here reads the filesystem or the clock. *)

module Json = Pmc_bench.Json

type litmus = {
  program : string;        (* a standard litmus program, by name *)
  models : string list;    (* [] = every model *)
  limit : int option;      (* state-space budget override *)
}

type check = {
  name : string;           (* reporting name (the CLI passes the path) *)
  source : string;         (* annotated-program text ({!Pmc_compile.Parse}) *)
}

type bench = {
  app : string;
  backend : string;
  topology : string;       (* fabric name ("star", "mesh:4x4", ...) *)
  cores : int;
  scale : int;
  unbatched : bool;
  warmup : int;
  repeat : int;
}

type chaos = {
  c_app : string;
  c_backend : string;
  c_topology : string;
  c_cores : int;
  c_scale : int;
  seed : int;
  intensity : float;
  model_check : bool;
  replay_budget : int option;
}

(* The power-cut cycle is a pure function of (seed, window)
   ([Pmc_sim.Fault.power_cut_cycle]), so carrying the window by value —
   instead of re-learning it from a twin run at execution time — keeps
   the cut deterministic from the encoding alone: cache-key
   soundness. *)
type crash = {
  x_app : string;
  x_backend : string;
  x_topology : string;
  x_cores : int;
  x_scale : int;
  x_seed : int;
  x_window : int;         (* cut window in cycles (> 0) *)
  x_log : bool;           (* redo log armed; false = tearable debug mode *)
  x_model_check : bool;
  x_replay_budget : int option;
}

type t =
  | Litmus of litmus
  | Check of check
  | Bench of bench
  | Chaos of chaos
  | Crash of crash

let kind_name = function
  | Litmus _ -> "litmus"
  | Check _ -> "check"
  | Bench _ -> "bench"
  | Chaos _ -> "chaos"
  | Crash _ -> "chaos-crash"

(* ---------------- JSON ----------------

   Field order is fixed by the declaration, so the encoding is
   canonical: the compact rendering of equal jobs is equal, which is
   what the verdict cache keys on.  Every int travels exactly
   ({!Pmc_bench.Codec.int}), so a job decodes to itself. *)

let codec =
  let open Pmc_bench.Codec in
  let budget = nullable int in
  variant "kind"
    [
      case "litmus"
        (record
           (fun program models limit -> { program; models; limit })
           [
             field "program" string (fun l -> l.program);
             field ~default:[] "models" (list string) (fun l -> l.models);
             field ~default:None "limit" budget (fun l -> l.limit);
           ])
        (fun l -> Litmus l) (function Litmus l -> Some l | _ -> None);
      case "check"
        (record
           (fun name source -> { name; source })
           [
             field "name" string (fun c -> c.name);
             field "source" string (fun c -> c.source);
           ])
        (fun c -> Check c) (function Check c -> Some c | _ -> None);
      case "bench"
        (record
           (fun app backend topology cores scale unbatched warmup repeat ->
             { app; backend; topology; cores; scale; unbatched; warmup;
               repeat })
           [
             field "app" string (fun b -> b.app);
             field "backend" string (fun b -> b.backend);
             field "topology" string (fun b -> b.topology);
             field "cores" int (fun b -> b.cores);
             field "scale" int (fun b -> b.scale);
             field "unbatched" bool (fun b -> b.unbatched);
             field "warmup" int (fun b -> b.warmup);
             field "repeat" int (fun b -> b.repeat);
           ])
        (fun b -> Bench b) (function Bench b -> Some b | _ -> None);
      case "chaos"
        (record
           (fun c_app c_backend c_topology c_cores c_scale seed intensity
                model_check replay_budget ->
             { c_app; c_backend; c_topology; c_cores; c_scale; seed;
               intensity; model_check; replay_budget })
           [
             field "app" string (fun c -> c.c_app);
             field "backend" string (fun c -> c.c_backend);
             field "topology" string (fun c -> c.c_topology);
             field "cores" int (fun c -> c.c_cores);
             field "scale" int (fun c -> c.c_scale);
             field "seed" int (fun c -> c.seed);
             field "intensity" float (fun c -> c.intensity);
             field "model_check" bool (fun c -> c.model_check);
             field ~default:None "replay_budget" budget (fun c ->
                 c.replay_budget);
           ])
        (fun c -> Chaos c) (function Chaos c -> Some c | _ -> None);
      case "chaos-crash"
        (record
           (fun x_app x_backend x_topology x_cores x_scale x_seed x_window
                x_log x_model_check x_replay_budget ->
             { x_app; x_backend; x_topology; x_cores; x_scale; x_seed;
               x_window; x_log; x_model_check; x_replay_budget })
           [
             field "app" string (fun c -> c.x_app);
             field "backend" string (fun c -> c.x_backend);
             field "topology" string (fun c -> c.x_topology);
             field "cores" int (fun c -> c.x_cores);
             field "scale" int (fun c -> c.x_scale);
             field "seed" int (fun c -> c.x_seed);
             field "window" int (fun c -> c.x_window);
             field "log" bool (fun c -> c.x_log);
             field "model_check" bool (fun c -> c.x_model_check);
             field ~default:None "replay_budget" budget (fun c ->
                 c.x_replay_budget);
           ])
        (fun c -> Crash c) (function Crash c -> Some c | _ -> None);
    ]
  |> obj

let to_json = Pmc_bench.Codec.encode codec

let of_json =
  Pmc_bench.Codec.decode_exn ~what:"Pmc_jobs.Job: malformed job" codec

let key t = Json.to_compact (to_json t)

let pp ppf t =
  match t with
  | Litmus l -> Fmt.pf ppf "litmus %s" l.program
  | Check c -> Fmt.pf ppf "check %s" c.name
  | Bench b ->
      let topo = if b.topology = "star" then "" else "/" ^ b.topology in
      Fmt.pf ppf "bench %s/%s%s/c%d/s%d" b.app b.backend topo b.cores b.scale
  | Chaos c ->
      let topo = if c.c_topology = "star" then "" else "/" ^ c.c_topology in
      Fmt.pf ppf "chaos %s/%s%s/c%d/s%d seed=%d" c.c_app c.c_backend topo
        c.c_cores c.c_scale c.seed
  | Crash c ->
      let topo = if c.x_topology = "star" then "" else "/" ^ c.x_topology in
      Fmt.pf ppf "crash %s/%s%s/c%d/s%d seed=%d%s" c.x_app c.x_backend topo
        c.x_cores c.x_scale c.x_seed
        (if c.x_log then "" else " no-log")
