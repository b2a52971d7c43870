(* What to benchmark: a suite is a list of (app, backend, topology,
   cores, scale) cases plus the measurement discipline (warmup runs,
   timed repeats, batched or unbatched machine).  The committed smoke
   suite is small enough for a CI gate; the full suite covers the whole
   registry; the scale suite runs the served-traffic apps on the big
   routed fabrics (256-tile mesh, 1024-tile hierarchy). *)

(* What a case exercises: a simulator run, or one of the two model-plane
   hot paths (the "check" suite).  Check cases reuse the same sample
   shape — [metrics.cycles] holds the deterministic work count (events
   replayed, states enumerated) and [host_cycles_per_s] the gated
   throughput rate. *)
type work =
  | Sim
  | Check_replay  (* History.check over a synthetic [scale]-event trace;
                     [app] names the location geometry, see [replay_locs] *)
  | Check_enum    (* Litmus.enumerate over the standard corpus *)

type case = {
  app : string;
  backend : Pmc.Backends.kind;
  topology : Pmc_sim.Topology.t;
  cores : int;
  scale : int;
  work : work;
}

type t = {
  label : string;
  suite : string;
  unbatched : bool;  (* run with Config.batched off (the pre-batching model) *)
  warmup : int;      (* discarded runs before timing *)
  repeat : int;      (* timed runs; host time is outlier-trimmed *)
  cases : case list;
}

(* Star cases keep the historic id so baselines recorded before
   topologies existed still join in [Compare]. *)
let case_id (c : case) =
  match c.work with
  | Check_replay -> Printf.sprintf "check/%s/c%d/s%d" c.app c.cores c.scale
  | Check_enum -> Printf.sprintf "check/enum/%s/s%d" c.app c.scale
  | Sim -> (
      match c.topology with
      | Pmc_sim.Topology.Star ->
          Printf.sprintf "%s/%s/c%d/s%d" c.app
            (Pmc.Backends.to_string c.backend)
            c.cores c.scale
      | t ->
          Printf.sprintf "%s/%s/%s/c%d/s%d" c.app
            (Pmc.Backends.to_string c.backend)
            (Pmc_sim.Topology.to_string t)
            c.cores c.scale)

let mk ?(topology = Pmc_sim.Topology.Star) ~cores backends apps =
  List.concat_map
    (fun (app, scale) ->
      List.map
        (fun backend ->
          { app; backend; topology; cores; scale; work = Sim })
        backends)
    apps

(* The CI gate: three kernels with distinct traffic shapes (lock-handover
   bound, halo-exchange bound, reduction bound) on every software
   coherency back-end and on far memory, whose long lock queues keep the
   engine's gang-scheduled polls under the host-rate gate, at the
   paper's 32-core geometry. *)
let smoke_cases =
  mk ~cores:32
    [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm;
      Pmc.Backends.Spm; Pmc.Backends.Farmem ]
    [ ("streaming", 32); ("stencil", 8); ("histogram", 64) ]

(* Everything in the registry, still at one geometry. *)
let full_cases =
  mk ~cores:32
    [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm;
      Pmc.Backends.Spm ]
    [
      ("radiosity", 512);
      ("raytrace", 128);
      ("volrend", 128);
      ("motion_est", 4);
      ("streaming", 32);
      ("stencil", 8);
      ("histogram", 64);
      ("reduce", 2048);
    ]

(* Served traffic on the big routed fabrics.  All five back-ends —
   including seqcst, the only suite that covers it — so the scale report
   answers "which Table II implementation keeps its latency tail at a
   thousand tiles".  The hierarchical tier runs the KV store only: the
   mailbox's celebrity actors make 1024-core runs needlessly slow for a
   CI-adjacent suite. *)
let all_backends =
  [ Pmc.Backends.Seqcst; Pmc.Backends.Nocc; Pmc.Backends.Swcc;
    Pmc.Backends.Dsm; Pmc.Backends.Spm ]

let scale_cases =
  mk ~topology:(Pmc_sim.Topology.Mesh { x = 16; y = 16 }) ~cores:256
    all_backends
    [ ("kv_store", 8); ("mailbox", 8) ]
  @ mk ~topology:(Pmc_sim.Topology.Hier { clusters = 32; size = 32 })
      ~cores:1024 all_backends
      [ ("kv_store", 4) ]

(* The model-plane throughput gate: replay synthetic traces through the
   incremental [History.check] in two location geometries, and enumerate
   the standard litmus corpus under every semantics.  "replay" spreads
   200k events over 2 locations per process; "replay-wide" spreads 20k
   over 512 locations — the many-location regime of recorded stencil and
   radiosity traces, where a frontier row has thousands of slots and
   almost all of them stay empty.  Every work count is deterministic, so
   only the rate is host-dependent — it is gated by
   [Compare.host_rate_floor] like every simulator case. *)
let check_case ~app ~cores ~scale work =
  { app; backend = Pmc.Backends.Nocc; topology = Pmc_sim.Topology.Star;
    cores; scale; work }

let check_cases =
  [
    check_case ~app:"replay" ~cores:4 ~scale:200_000 Check_replay;
    check_case ~app:"corpus" ~cores:1 ~scale:1 Check_enum;
    check_case ~app:"replay-wide" ~cores:4 ~scale:20_000 Check_replay;
  ]

let replay_locs (c : case) =
  match c.app with "replay-wide" -> 512 | _ -> 2 * c.cores

let suite ?(label = "bench") ?(unbatched = false) ?(warmup = 1) ?(repeat = 3)
    name =
  match name with
  | "smoke" -> Some { label; suite = name; unbatched; warmup; repeat;
                      cases = smoke_cases }
  | "full" -> Some { label; suite = name; unbatched; warmup; repeat;
                     cases = full_cases }
  | "scale" -> Some { label; suite = name; unbatched; warmup; repeat;
                      cases = scale_cases }
  | "check" -> Some { label; suite = name; unbatched; warmup; repeat;
                      cases = check_cases }
  (* the committed-baseline set: everything BENCH_BASELINE.json records,
     so one run regenerates the whole file *)
  | "ci" -> Some { label; suite = name; unbatched; warmup; repeat;
                   cases = smoke_cases @ check_cases }
  | _ -> None

let suite_names = [ "smoke"; "full"; "scale"; "check"; "ci" ]
