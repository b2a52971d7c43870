(* pmc_trace subsystem tests: recorder bookkeeping, race-detector
   soundness (qcheck property: DRF programs are never flagged, the
   unannotated flag program always is), model replay of recorded runs
   (apps × back-ends must be PMC-consistent), and the Chrome trace-event
   export. *)

open Pmc_sim

let cfg = { Config.small with cores = 4 }

(* ---------------- fixture programs ---------------- *)

(* Record a two-core run of [prog : api -> data -> flag -> unit]. *)
let record_pair ?(check = true) ?capacity prog =
  let m = Machine.create { Config.small with cores = 2 } in
  let api = Pmc.Backends.create ~check Pmc.Backends.Nocc m in
  let rec_ = Pmc_trace.Recorder.attach ?capacity api in
  let data = Pmc.Api.alloc_words api ~name:"data" ~words:2 in
  let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
  prog m api data flag;
  Machine.run m;
  rec_

(* The annotated Fig. 6 publish/consume — DRF by construction. *)
let annotated_prog m api data flag =
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Msg.send api ~data ~flag [| 42l; 7l |]);
  Machine.spawn m ~core:1 (fun () -> ignore (Pmc.Msg.recv api ~data ~flag))

(* The same program with the annotations stripped — racy everywhere. *)
let racy_prog m api data flag =
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Api.set api data 0 42l;
      Pmc.Api.set api data 1 7l;
      Pmc.Api.set api flag 0 1l);
  Machine.spawn m ~core:1 (fun () ->
      while Pmc.Api.get api flag 0 <> 1l do
        Engine.idle (Machine.engine m) 16
      done;
      ignore (Pmc.Api.get api data 0);
      ignore (Pmc.Api.get api data 1))

(* ---------------- recorder ---------------- *)

let test_recorder_basic () =
  let rec_ = record_pair annotated_prog in
  let events = Pmc_trace.Recorder.events rec_ in
  Alcotest.(check bool) "events recorded" true (List.length events > 0);
  Alcotest.(check int) "nothing dropped" 0
    (Pmc_trace.Recorder.dropped_total rec_);
  Alcotest.(check int) "recorded = |events|"
    (List.length events)
    (Pmc_trace.Recorder.recorded rec_);
  (* the merged timeline carries strictly increasing (hence unique) seq *)
  let seqs = List.map (fun (e : Pmc_trace.Event.t) -> e.seq) events in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "seq strictly increasing" true (increasing seqs)

let test_recorder_drops () =
  let rec_ = record_pair ~capacity:8 annotated_prog in
  Alcotest.(check bool) "drops counted" true
    (Pmc_trace.Recorder.dropped_total rec_ > 0);
  (* surviving events per core ≤ capacity *)
  Alcotest.(check bool) "rings bounded" true
    (Pmc_trace.Recorder.recorded rec_ <= 8 * Pmc_trace.Recorder.cores rec_)

(* The preallocated ring the recorder used before its rings grew on
   demand: the reference a growing ring must match push for push. *)
module Ref_ring = struct
  type t = {
    buf : Pmc_trace.Event.t array;
    mutable len : int;
    mutable head : int;
    mutable dropped : int;
  }

  let create capacity e0 =
    { buf = Array.make capacity e0; len = 0; head = 0; dropped = 0 }

  let push r e =
    let cap = Array.length r.buf in
    r.buf.(r.head) <- e;
    r.head <- (r.head + 1) mod cap;
    if r.len < cap then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

  let to_list r =
    let cap = Array.length r.buf in
    let start = (r.head - r.len + cap) mod cap in
    List.init r.len (fun i -> r.buf.((start + i) mod cap))
end

let prop_ring_grows_like_preallocated =
  QCheck.Test.make ~count:300 ~name:"growing ring = preallocated ring"
    QCheck.(pair (int_range 1 300) (int_range 0 1_000))
    (fun (capacity, pushes) ->
      let ev i : Pmc_trace.Event.t =
        { seq = i; time = 3 * i; core = 0;
          kind =
            Pmc_trace.Event.Probe (Probe.Task { core = 0; op = Probe.Spawn });
        }
      in
      let ring = Pmc_trace.Recorder.Ring.create capacity in
      let reference = Ref_ring.create capacity (ev (-1)) in
      let same_counts () =
        Pmc_trace.Recorder.Ring.recorded ring = reference.Ref_ring.len
        && Pmc_trace.Recorder.Ring.dropped ring = reference.Ref_ring.dropped
      in
      let same_contents () =
        Pmc_trace.Recorder.Ring.to_list ring = Ref_ring.to_list reference
      in
      let ok = ref (same_counts () && same_contents ()) in
      for i = 1 to pushes do
        Pmc_trace.Recorder.Ring.push ring (ev i);
        Ref_ring.push reference (ev i);
        (* contents around every doubling, and at the end *)
        let boundary = i land (i - 1) = 0 || (i - 1) land (i - 2) = 0 in
        ok :=
          !ok && same_counts ()
          && ((not (boundary || i = capacity || i = pushes))
             || same_contents ())
      done;
      !ok)

let test_recorder_detach () =
  let rec_ = record_pair annotated_prog in
  let n = Pmc_trace.Recorder.recorded rec_ in
  Pmc_trace.Recorder.detach rec_;
  (* a fresh op after detach must not be recorded *)
  let api = Pmc_trace.Recorder.api rec_ in
  let o = Pmc.Api.alloc_words api ~name:"post" ~words:1 in
  Pmc.Api.poke api o 0 1l;
  Alcotest.(check int) "no recording after detach" n
    (Pmc_trace.Recorder.recorded rec_)

(* ---------------- race detector ---------------- *)

let test_race_reported () =
  let rec_ = record_pair ~check:false racy_prog in
  let races =
    Pmc_trace.Racecheck.check ~cores:2 (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check bool) "races found" true (races <> []);
  (* the data-word race must be among them, write by core 0 vs read by
     core 1, with both conflicting accesses identified *)
  let on_data =
    List.filter
      (fun (r : Pmc_trace.Racecheck.race) ->
        r.obj.Pmc_trace.Event.name = "data")
      races
  in
  Alcotest.(check bool) "race on data object" true (on_data <> []);
  List.iter
    (fun (r : Pmc_trace.Racecheck.race) ->
      let a = r.Pmc_trace.Racecheck.first
      and b = r.Pmc_trace.Racecheck.second in
      Alcotest.(check bool) "different cores" true
        (a.Pmc_trace.Racecheck.core <> b.Pmc_trace.Racecheck.core);
      Alcotest.(check bool) "at least one write" true
        (a.Pmc_trace.Racecheck.is_write || b.Pmc_trace.Racecheck.is_write))
    races

let test_annotated_clean () =
  let rec_ = record_pair annotated_prog in
  let races =
    Pmc_trace.Racecheck.check ~cores:2 (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check int) "annotated program is DRF" 0 (List.length races)

(* qcheck: random annotated producer/consumer configurations are never
   flagged; the same configurations with annotations stripped always
   are.  Generates (words, payload values, extra fence?, reader count). *)
let gen_config =
  QCheck.Gen.(
    let* words = int_range 1 6 in
    let* values = list_size (return words) (map Int32.of_int (int_bound 1000)) in
    let* readers = int_range 1 3 in
    let* extra_fence = bool in
    return (words, Array.of_list values, readers, extra_fence))

let arb_config =
  QCheck.make gen_config ~print:(fun (w, _, r, f) ->
      Printf.sprintf "words=%d readers=%d fence=%b" w r f)

let run_config ~annotated (words, values, readers, extra_fence) =
  let cores = readers + 1 in
  let m = Machine.create { Config.small with cores } in
  let api = Pmc.Backends.create ~check:annotated Pmc.Backends.Nocc m in
  let rec_ = Pmc_trace.Recorder.attach api in
  let data = Pmc.Api.alloc_words api ~name:"data" ~words in
  let flag = Pmc.Api.alloc_words api ~name:"flag" ~words:1 in
  if annotated then begin
    Machine.spawn m ~core:0 (fun () ->
        Pmc.Msg.send api ~data ~flag values;
        if extra_fence then Pmc.Api.fence api);
    for r = 1 to readers do
      Machine.spawn m ~core:r (fun () ->
          ignore (Pmc.Msg.recv api ~data ~flag))
    done
  end
  else begin
    Machine.spawn m ~core:0 (fun () ->
        Array.iteri (fun i v -> Pmc.Api.set api data i v) values;
        Pmc.Api.set api flag 0 1l);
    for r = 1 to readers do
      Machine.spawn m ~core:r (fun () ->
          while Pmc.Api.get api flag 0 <> 1l do
            Engine.idle (Machine.engine m) 16
          done;
          for i = 0 to words - 1 do
            ignore (Pmc.Api.get api data i)
          done)
    done
  end;
  Machine.run m;
  Pmc_trace.Racecheck.check ~cores (Pmc_trace.Recorder.events rec_)

let prop_drf_never_flagged =
  QCheck.Test.make ~count:30 ~name:"annotated configs never flagged"
    arb_config (fun c -> run_config ~annotated:true c = [])

let prop_racy_always_flagged =
  QCheck.Test.make ~count:30 ~name:"unannotated configs always flagged"
    arb_config (fun c -> run_config ~annotated:false c <> [])

(* ---------------- model replay ---------------- *)

let test_replay_apps () =
  List.iter
    (fun (app_name, scale) ->
      let app = Option.get (Pmc_apps.Registry.find app_name) in
      List.iter
        (fun backend ->
          let recorder = ref None in
          let r =
            Pmc_apps.Runner.run ~cfg
              ~on_api:(fun api ->
                recorder := Some (Pmc_trace.Recorder.attach api))
              app ~backend ~scale
          in
          let name =
            Printf.sprintf "%s/%s" app.Pmc_apps.Runner.name
              (Pmc.Backends.to_string backend)
          in
          Alcotest.(check bool) (name ^ " checksum") true
            (Pmc_apps.Runner.ok r);
          let rec_ = Option.get !recorder in
          Alcotest.(check int) (name ^ " complete trace") 0
            (Pmc_trace.Recorder.dropped_total rec_);
          let report =
            Pmc_trace.Replay.check ~cores:cfg.Config.cores
              (Pmc_trace.Recorder.events rec_)
          in
          Alcotest.(check bool) (name ^ " PMC-consistent") true
            (Pmc_model.History.ok report))
        [ Pmc.Backends.Seqcst; Pmc.Backends.Swcc; Pmc.Backends.Dsm;
          Pmc.Backends.Spm ])
    (* stencil at scale 8 replays ~27k events over 514 locations, with
       frontier rows holding hundreds of nonzero slots: the dense end of
       the many-location class *)
    [ ("histogram", 8); ("stencil", 8) ]

(* The many-location class: a 4-core stencil run touches ~500 words, so
   a frontier row spans ~2k (writer, location) slots of which a replay
   fills almost none.  The check must cost the slots it fills, not the
   slots the geometry allows: a dense-row checker allocated ~118 MB on
   this trace, the sparse one under 0.5 MB. *)
let test_replay_many_locations () =
  let app = Option.get (Pmc_apps.Registry.find "stencil") in
  let recorder = ref None in
  let r =
    Pmc_apps.Runner.run
      ~cfg:{ Config.default with cores = 4 }
      ~on_api:(fun api -> recorder := Some (Pmc_trace.Recorder.attach api))
      app ~backend:Pmc.Backends.Swcc ~scale:1
  in
  Alcotest.(check bool) "checksum" true (Pmc_apps.Runner.ok r);
  let rec_ = Option.get !recorder in
  Alcotest.(check int) "complete trace" 0
    (Pmc_trace.Recorder.dropped_total rec_);
  let l = Pmc_trace.Replay.lower (Pmc_trace.Recorder.events rec_) in
  Alcotest.(check bool) "many locations" true (l.Pmc_trace.Replay.locs > 500);
  let a0 = Gc.allocated_bytes () in
  let report =
    Pmc_model.History.check ~init:l.Pmc_trace.Replay.init ~procs:4
      ~locs:l.Pmc_trace.Replay.locs l.Pmc_trace.Replay.events
  in
  let allocated = Gc.allocated_bytes () -. a0 in
  Alcotest.(check bool) "PMC-consistent" true (Pmc_model.History.ok report);
  if allocated >= 8e6 then
    Alcotest.failf "History.check allocated %.1f MB (bound 8 MB)"
      (allocated /. 1e6)

let test_replay_lowering () =
  let rec_ = record_pair annotated_prog in
  let l = Pmc_trace.Replay.lower (Pmc_trace.Recorder.events rec_) in
  Alcotest.(check bool) "history events produced" true
    (l.Pmc_trace.Replay.events <> []);
  Alcotest.(check bool) "locations assigned" true
    (l.Pmc_trace.Replay.locs >= 3) (* 2 data words + flag *)

(* The byte kernel writes each lane of a word from a different core with
   [set8] and reads the words back with [get] and [get8].  Lowered per
   byte, every value it read is explained by the model on every
   back-end, plain and with every fault class armed. *)
let test_replay_byte_kernel () =
  List.iter
    (fun backend ->
      List.iter
        (fun chaos ->
          let k = Byte_kernel.run ?chaos ~record:true backend in
          let name =
            Printf.sprintf "bytes/%s/%s"
              (Pmc.Backends.to_string backend)
              (if chaos = None then "plain" else "chaos7")
          in
          Alcotest.(check string) (name ^ " ran") "ok" k.Byte_kernel.outcome;
          let rec_ = Option.get k.Byte_kernel.recorder in
          let report =
            Pmc_trace.Replay.check ~cores:Byte_kernel.cores
              (Pmc_trace.Recorder.events rec_)
          in
          List.iter
            (fun v ->
              Fmt.epr "%s: %a@." name Pmc_model.History.pp_violation v)
            report.Pmc_model.History.violations;
          Alcotest.(check bool) (name ^ " PMC-consistent") true
            (Pmc_model.History.ok report))
        [ None; Some 7 ])
    Pmc.Backends.all

(* A byte read whose value no write explains is still caught. *)
let test_replay_doctored_byte () =
  let k = Byte_kernel.run ~record:true Pmc.Backends.Nocc in
  let events = Pmc_trace.Recorder.events (Option.get k.Byte_kernel.recorder) in
  let doctored = ref false in
  let events =
    List.map
      (fun (e : Pmc_trace.Event.t) ->
        match e.Pmc_trace.Event.kind with
        | Pmc_trace.Event.Read ({ width = 1; _ } as r) when not !doctored ->
            doctored := true;
            { e with
              kind = Pmc_trace.Event.Read { r with value = r.value lxor 0x80 } }
        | _ -> e)
      events
  in
  Alcotest.(check bool) "a byte read was doctored" true !doctored;
  let report = Pmc_trace.Replay.check ~cores:Byte_kernel.cores events in
  Alcotest.(check int) "one violation" 1
    (List.length report.Pmc_model.History.violations)

(* ---------------- export ---------------- *)

let test_export_json () =
  let rec_ = record_pair annotated_prog in
  let api = Pmc_trace.Recorder.api rec_ in
  let stats = Machine.stats (Pmc.Api.machine api) in
  let json =
    Pmc_trace.Export.to_string ~stats (Pmc_trace.Recorder.events rec_)
  in
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 2
    && String.sub json 0 15 = "{\"traceEvents\":");
  (* structurally: balanced braces/brackets outside strings *)
  let depth = ref 0 and ok = ref true and in_str = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if c = '"' && json.[i - 1] <> '\\' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    json;
  Alcotest.(check bool) "balanced json" true (!ok && !depth = 0);
  (* the annotated run must produce matched scope slices *)
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "scope slices present" true
    (contains json "\"ph\":\"X\"");
  Alcotest.(check bool) "thread names present" true
    (contains json "thread_name");
  Alcotest.(check bool) "stall counters present" true
    (contains json "\"ph\":\"C\"")

let suite =
  ( "trace",
    [
      Alcotest.test_case "recorder basic" `Quick test_recorder_basic;
      Alcotest.test_case "recorder drops" `Quick test_recorder_drops;
      Alcotest.test_case "recorder detach" `Quick test_recorder_detach;
      QCheck_alcotest.to_alcotest prop_ring_grows_like_preallocated;
      Alcotest.test_case "race reported" `Quick test_race_reported;
      Alcotest.test_case "annotated clean" `Quick test_annotated_clean;
      QCheck_alcotest.to_alcotest prop_drf_never_flagged;
      QCheck_alcotest.to_alcotest prop_racy_always_flagged;
      Alcotest.test_case "replay apps x backends" `Slow test_replay_apps;
      Alcotest.test_case "replay many locations" `Quick
        test_replay_many_locations;
      Alcotest.test_case "replay lowering" `Quick test_replay_lowering;
      Alcotest.test_case "replay byte kernel" `Quick test_replay_byte_kernel;
      Alcotest.test_case "replay doctored byte read" `Quick
        test_replay_doctored_byte;
      Alcotest.test_case "export json" `Quick test_export_json;
    ] )
