(* The check-suite workloads: the model plane's two hot paths, packaged
   so [Measure] can time them like simulator cases.

   Both workloads are deterministic by construction — the replay trace
   comes from a fixed-seed LCG and enumeration explores fixed programs —
   so the work count and digest must be identical across repeats and
   across hosts; only the measured rate varies. *)

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
  { work; ok = History.ok r; digest }

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
  { work = !work; ok = !work > 0; digest = !digest }
