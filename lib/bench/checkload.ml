(* The check-suite workloads: the model plane's two hot paths and the
   crash checker, packaged so [Measure] can time them like simulator
   cases.

   Every workload is deterministic by construction — the replay trace
   comes from a fixed-seed LCG, enumeration explores fixed programs and
   the crash sweep draws its cuts from fixed seeds — so the work count
   and digest must be identical across repeats and across hosts; only
   the measured rate varies. *)

open Pmc_model

(* FNV-1a over strings/ints: a portable digest (unlike [Hashtbl.hash],
   which is not specified across compiler versions) pinning the verdict
   content, stored in the sample's [lat_digest] slot. *)
let fnv_prime = 0x100000001b3

let digest_int h n = (h lxor (n land 0xFFFF_FFFF)) * fnv_prime

let digest_string h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

(* the FNV-1a offset basis, truncated to OCaml's 63-bit int *)
let digest_seed = 0x4bf29ce484222325

(* Reports carry ints exactly only below 1e15 ({!Codec.int}), so the
   stored digest keeps the low 49 bits, as {!Pmc_apps.Service} does. *)
let digest_mask h = h land 0x1_FFFF_FFFF_FFFF

(* A synthetic PMC-consistent trace: every access is a locked
   acquire/write/read/release quad, so the checker takes its full
   locked-discipline path on every event.  The LCG is fixed-seed —
   the trace for a given (procs, locs, events) is a pure function. *)
let synth_events ~procs ~locs ~events =
  let evs = ref [] in
  let seed = ref 12345 in
  let rnd m =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod m
  in
  for _ = 1 to events / 4 do
    let p = rnd procs and l = rnd locs in
    let v = rnd 100 in
    evs :=
      History.E_release { proc = p; loc = l }
      :: History.E_read { proc = p; loc = l; value = v }
      :: History.E_write { proc = p; loc = l; value = v }
      :: History.E_acquire { proc = p; loc = l }
      :: !evs
  done;
  List.rev !evs

type outcome = {
  work : int;    (* events replayed / states enumerated *)
  ok : bool;
  digest : int;  (* FNV-1a over the verdict content *)
}

let replay ~procs ~locs ~events =
  let evs = synth_events ~procs ~locs ~events in
  let work = List.length evs in
  let r = History.check ~procs ~locs evs in
  let digest =
    List.fold_left
      (fun h v -> digest_string h (Fmt.str "%a" History.pp_violation v))
      (digest_int digest_seed work)
      r.History.violations
  in
  { work; ok = History.ok r; digest = digest_mask digest }

(* The whole standard corpus under every semantics — the workload
   [litmus_run] users actually pay for.  States are memoized per cell,
   so the count is exactly the number of distinct states. *)
let enum () =
  let cells =
    List.concat_map
      (fun p -> List.map (fun m -> (p, m)) Models.all)
      Lprog.all_standard
  in
  let work = ref 0 in
  let digest = ref digest_seed in
  List.iter
    (fun ((p : Lprog.t), m) ->
      let r = Litmus.enumerate m p in
      work := !work + r.Litmus.states_explored;
      digest := digest_string !digest p.Lprog.name;
      digest := digest_int !digest r.Litmus.states_explored;
      digest := digest_int !digest r.Litmus.stuck_states;
      Lprog.Outcome_set.iter
        (fun o -> digest := digest_string !digest o)
        r.Litmus.outcomes)
    cells;
  { work = !work; ok = !work > 0; digest = digest_mask !digest }

(* A one-pass crash sweep of one app on the far-memory tier over eight
   fixed seeds: [work] counts the cuts judged, [digest] pins each
   report's verdict, cut, wall and recorded events. *)
let crash_seeds = List.init 8 (fun i -> i + 1)

let crash ~app ~cores ~scale =
  let a =
    match Pmc_apps.Registry.find app with
    | Some a -> a
    | None -> invalid_arg ("Checkload.crash: unknown app " ^ app)
  in
  let s =
    Pmc_apps.Crash.sweep ~apps:[ a ] ~backend:Pmc.Backends.Farmem ~cores
      ~scale ~seeds:crash_seeds ()
  in
  let digest =
    List.fold_left
      (fun h (r : Pmc_apps.Crash.report) ->
        let h = digest_string h (Pmc_apps.Crash.verdict_name r.verdict) in
        let h = digest_int h (Option.value ~default:(-1) r.cut) in
        digest_int (digest_int h r.wall) r.events)
      digest_seed s.Pmc_apps.Crash.reports
  in
  { work = s.Pmc_apps.Crash.total; ok = Pmc_apps.Crash.ok s;
    digest = digest_mask digest }
