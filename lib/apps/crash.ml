(* Crash-consistency checker for the far-memory tier.

   A crash experiment cuts power to a registered application on the
   [farmem] back-end at a seed-derived cycle and judges what the durable
   image left behind:

     1. run the workload under a trace recorder up to the cut (or to
        completion, if the cut cycle lands past the last task);
     2. snapshot the durable image — exactly the media bytes, the device
        cache is lost;
     3. restore the image into a fresh device and replay recovery
        ([Farmem.recover]): committed redo-log slots are re-applied,
        uncommitted ones discarded;
     4. torn-object check: every shared object's recovered payload must
        equal the state after its k-th publication, where k is the
        object's recovered publication count — any [exit_x]/[flush] is
        fully visible or fully absent, never a byte mix;
     5. durable-prefix check: the committed prefix of the recorded trace
        (kept scopes truncated at their last committed publication,
        uncommitted scopes dropped, incomplete read-only scopes dropped)
        must replay PMC-consistent through [Pmc_model.History].

   Steps 1–2 are shared by every cut of an app: with only the cut armed,
   the timeline before a cut is the fault-free timeline, so one run with
   a marker at each cut cycle records each cut's trace length and a
   sparse durable snapshot ([judge_cuts]); steps 3–5 ([judge]) then run
   per cut.  [test/crash_oracle.ml] keeps the one-run-per-cut path as
   the oracle.

   Soundness of the expected-bytes reconstruction: the device serves
   reads from durable media only, commits hold the object lock through
   their last barrier, and a run contains at most one cut — so the
   durable payload at any instant is exactly the last committed
   publication, and the k-th publication's bytes are the initialization
   pokes plus every recorded write up to the k-th publication event.

   The publication count is read from the recovered media, NOT counted
   from [Exit_x] trace events: the cut can land after a commit's final
   barrier but before the annotation event is emitted, in which case the
   commit is durable yet invisible in the trace (the "in-flight"
   publication).  Such a scope is kept whole in the prefix and closed
   with a synthesized [Exit_x].

   With [Config.farmem_log] off the back-end publishes word by word with
   a barrier after each word — deliberately tearable; the checker must
   (and the tests verify it does) catch the resulting mixes. *)

open Pmc_sim
module Event = Pmc_trace.Event

type obj_check = {
  obj_name : string;
  words : int;
  committed : int;   (* durable publication count k (recovered media) *)
  published : int;   (* publication events recorded in the trace *)
  in_flight : bool;  (* k = published + 1: commit durable, event unsent *)
  torn_words : int;  (* payload words differing from publication k *)
}

type verdict =
  | Completed       (* the cut landed past the wall; full-run checks clean *)
  | Recovered       (* cut fired; no torn object, durable prefix consistent *)
  | Torn of { objects : int; words : int }
  | Prefix_inconsistent of int  (* model violations in the durable prefix *)
  | Check_error of string       (* the experiment itself failed *)

type report = {
  app : string;
  backend : Pmc.Backends.kind;
  cores : int;
  scale : int;
  seed : int;
  window : int;        (* cut window the schedule was drawn from *)
  cut : int option;    (* cycle the cut fired at, [None] if it never did *)
  log : bool;          (* redo log armed ([Config.farmem_log]) *)
  verdict : verdict;
  wall : int;
  objects : obj_check list;
  recovery : Farmem.recovery option;
  events : int;
  dropped : int;
  replayed : bool;     (* the durable-prefix model replay ran *)
}

let acceptable = function
  | Completed | Recovered -> true
  | Torn _ | Prefix_inconsistent _ | Check_error _ -> false

(* Crash experiments run at small geometry and the incremental checker
   replays events in near-constant time each, so the budget effectively
   never skips a durable-prefix replay. *)
let default_replay_budget = 500_000

(* ---------------- durable-image object checks ---------------- *)

(* Pair trace object descriptors with the device's allocation directory:
   the back-end allocates far memory inside [Shared.make]'s id order and
   ids restart at 0 every run, so directory entry [i] is object id [i]. *)
let header_bytes = Pmc.Farmem.header_bytes

type obj_state = {
  o_name : string;
  o_words : int;
  o_addr : int;              (* header address; payload at [+8] *)
  expected : Bytes.t;        (* reconstructed publication-k payload *)
  mutable pubs_total : int;  (* publication events in the whole trace *)
  mutable k : int;           (* durable publication count *)
  mutable o_in_flight : bool;
  mutable pubs_seen : int;   (* walk state: publications passed so far *)
  mutable frozen : bool;     (* walk state: past publication k *)
}

(* Store the [width] low bytes of [v] at [byte], least significant
   first. *)
let set_le b ~byte ~width v =
  for lane = 0 to width - 1 do
    Bytes.set b (byte + lane) (Char.chr ((v lsr (8 * lane)) land 0xff))
  done

(* Reconstruct, per object, the payload bytes of its k-th publication:
   initialization pokes, then every recorded write in trace order until
   the k-th publication event freezes the object ([in_flight] objects
   never freeze — their last commit includes every recorded write). *)
let reconstruct_expected (states : obj_state array)
    (trace : Event.t list) =
  let st (o : Event.obj) =
    if o.Event.id < Array.length states then Some states.(o.Event.id)
    else None
  in
  let refreeze s =
    if (not s.o_in_flight) && s.pubs_seen >= s.k then s.frozen <- true
  in
  Array.iter (fun s -> refreeze s) states;
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | Event.Init { obj; word; value } ->
          (* pokes are durable by definition and precede every run *)
          Option.iter
            (fun s ->
              set_le s.expected ~byte:(4 * word) ~width:4 (Int32.to_int value))
            (st obj)
      | Event.Write { obj; width; byte; value } ->
          Option.iter
            (fun s -> if not s.frozen then set_le s.expected ~byte ~width value)
            (st obj)
      | Event.Annot { ann = Event.Exit_x | Event.Flush; obj = Some o } ->
          Option.iter
            (fun s ->
              s.pubs_seen <- s.pubs_seen + 1;
              refreeze s)
            (st o)
      | _ -> ())
    trace

let torn_words_of (dev : Farmem.t) (s : obj_state) =
  let torn = ref 0 in
  for w = 0 to s.o_words - 1 do
    let media = Farmem.peek_u32 dev (s.o_addr + header_bytes + (4 * w)) in
    let expect =
      Char.code (Bytes.get s.expected (4 * w))
      lor (Char.code (Bytes.get s.expected ((4 * w) + 1)) lsl 8)
      lor (Char.code (Bytes.get s.expected ((4 * w) + 2)) lsl 16)
      lor (Char.code (Bytes.get s.expected ((4 * w) + 3)) lsl 24)
    in
    if media <> expect then incr torn
  done;
  !torn

(* ---------------- durable-prefix construction ---------------- *)

(* The committed prefix of a crashed trace:
     - initialization events are kept (pokes are durable);
     - exclusive-scope events of an object are kept up to and including
       its k-th publication event; a scope cut there by a [flush] (or an
       in-flight scope, which has no terminal event at all) is closed
       with a synthesized [Exit_x] so the model sees a balanced scope;
     - scopes that committed nothing — including their reads — are
       dropped: nothing they did was promised to anyone;
     - read-only scopes are kept only when complete (entry and exit both
       recorded); their reads saw durable media, which the kept writes
       explain;
     - everything below the model's vocabulary (locks, NoC, cache
       maintenance, tasks, faults) passes through untouched — the
       lowering skips it anyway. *)
let durable_prefix (states : obj_state array) (trace : Event.t list) :
    Event.t list =
  let n = Array.length states in
  let arr = Array.of_list trace in
  (* pass 1: which read-only scopes complete?  [ro_keep.(i)] is set for
     every event index belonging to a complete RO scope *)
  let ro_keep = Array.make (Array.length arr) false in
  let ro_open = Hashtbl.create 16 in
  (* (obj, core) -> reverse list of member indices *)
  Array.iteri
    (fun i (e : Event.t) ->
      let key (o : Event.obj) = (o.Event.id, e.Event.core) in
      match e.Event.kind with
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          Hashtbl.replace ro_open (key o) [ i ]
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } -> (
          match Hashtbl.find_opt ro_open (key o) with
          | Some members ->
              List.iter (fun j -> ro_keep.(j) <- true) (i :: members);
              Hashtbl.remove ro_open (key o)
          | None -> ())
      | Event.Read { obj; _ } -> (
          match Hashtbl.find_opt ro_open (key obj) with
          | Some members -> Hashtbl.replace ro_open (key obj) (i :: members)
          | None -> ())
      | _ -> ())
    arr;
  (* pass 2: stream the prefix.  [pubs_seen]/[frozen] restart here *)
  Array.iter
    (fun s ->
      s.pubs_seen <- 0;
      s.frozen <- (not s.o_in_flight) && s.k <= 0)
    states;
  let active_x = Array.make n None in   (* object id -> Some holder core *)
  let last_kept = Array.make n None in  (* object id -> Some (core, time, seq) *)
  let in_ro = Hashtbl.create 16 in      (* (obj id, core) active RO scope *)
  let out = ref [] in
  let push e = out := e :: !out in
  let synth_exit id ~core ~time ~seq =
    let s = states.(id) in
    push
      {
        Event.seq;
        time;
        core;
        kind =
          Event.Annot
            {
              ann = Event.Exit_x;
              obj =
                Some
                  {
                    Event.id;
                    name = s.o_name;
                    words = s.o_words;
                    bytes = 4 * s.o_words;
                  };
            };
      }
  in
  Array.iteri
    (fun i (e : Event.t) ->
      let core = e.Event.core in
      let known (o : Event.obj) = o.Event.id < n in
      let keep_mark (o : Event.obj) =
        push e;
        last_kept.(o.Event.id) <- Some (core, e.Event.time, e.Event.seq)
      in
      match e.Event.kind with
      | Event.Init _ -> push e
      | Event.Annot { ann = Event.Entry_x; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          active_x.(o.Event.id) <- Some core;
          if not s.frozen then keep_mark o
      | Event.Annot { ann = Event.Exit_x; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          active_x.(o.Event.id) <- None;
          if not s.frozen then begin
            push e;
            last_kept.(o.Event.id) <- None
          end;
          s.pubs_seen <- s.pubs_seen + 1;
          if (not s.o_in_flight) && s.pubs_seen >= s.k then s.frozen <- true
      | Event.Annot { ann = Event.Flush; obj = Some o } when known o ->
          let s = states.(o.Event.id) in
          let was_frozen = s.frozen in
          if not was_frozen then keep_mark o;
          s.pubs_seen <- s.pubs_seen + 1;
          if (not s.o_in_flight) && s.pubs_seen >= s.k then begin
            s.frozen <- true;
            (* the scope's last committed publication is this flush:
               close the acquire for the model and drop the rest *)
            if not was_frozen then begin
              synth_exit o.Event.id ~core ~time:e.Event.time ~seq:e.Event.seq;
              last_kept.(o.Event.id) <- None
            end
          end
      | Event.Annot { ann = Event.Entry_ro; obj = Some o } ->
          if ro_keep.(i) then push e;
          if known o then Hashtbl.replace in_ro (o.Event.id, core) ()
      | Event.Annot { ann = Event.Exit_ro; obj = Some o } ->
          if ro_keep.(i) then push e;
          Hashtbl.remove in_ro (o.Event.id, core)
      | Event.Read { obj; _ } ->
          if Hashtbl.mem in_ro (obj.Event.id, core) then begin
            if ro_keep.(i) then push e
          end
          else if
            known obj
            && (not states.(obj.Event.id).frozen)
            && active_x.(obj.Event.id) = Some core
          then keep_mark obj
      | Event.Write { obj; _ } ->
          if
            known obj
            && (not states.(obj.Event.id).frozen)
            && active_x.(obj.Event.id) = Some core
          then keep_mark obj
      | Event.Annot _ | Event.Probe _ -> push e)
    arr;
  (* close in-flight scopes: the commit is durable, its terminal event
     never made it into the trace *)
  Array.iteri
    (fun id s ->
      if not s.frozen then
        match last_kept.(id) with
        | Some (core, time, seq) when active_x.(id) <> None || s.o_in_flight
          ->
            synth_exit id ~core ~time ~seq
        | _ -> ())
    states;
  List.rev !out

(* ---------------- judging one crash state ---------------- *)

(* Steps 3–5 on a crash state: [base] carries the experiment's identity
   and what the run left (cut, wall, recorded and dropped counts),
   [trace] the recorded events up to the cut (a cut run ends in its
   [Power_cut] event), and [durable] restores the durable image into a
   fresh device and returns it with the crashed device's allocation
   directory — [None] when the back-end never created a far-memory
   tier. *)
let judge ?(replay_budget = default_replay_budget) ?(model_check = true)
    (base : report) ~(trace : Event.t list) ~durable : report =
  let fail msg =
    {
      base with
      cut = None;
      verdict = Check_error msg;
      objects = [];
      recovery = None;
      replayed = false;
    }
  in
  match durable with
  | None ->
      fail
        (Printf.sprintf "backend %s has no far-memory tier"
           (Pmc.Backends.to_string base.backend))
  | Some _ when base.dropped > 0 ->
      fail "trace ring overflow: prefix reconstruction unsound"
  | Some restore -> (
      let fresh, allocs = restore () in
      let recovery = Farmem.recover fresh in
      let mk_report ~verdict ~objects ~replayed =
        { base with verdict; objects; recovery = Some recovery; replayed }
      in
      let clean = match base.cut with None -> Completed | Some _ -> Recovered in
      (* device directory entry i is object id i (ids restart at 0 each
         run and the back-end allocates inside Shared.make) *)
      let states =
        Array.of_list
          (List.map
             (fun (name, addr, bytes) ->
               let words = (bytes - header_bytes) / 4 in
               {
                 o_name = name;
                 o_words = words;
                 o_addr = addr;
                 expected = Bytes.make (4 * words) '\000';
                 pubs_total = 0;
                 k = Farmem.peek_u32 fresh addr;
                 o_in_flight = false;
                 pubs_seen = 0;
                 frozen = false;
               })
             allocs)
      in
      (* publication totals, then classify in-flight commits *)
      List.iter
        (fun (e : Event.t) ->
          match e.Event.kind with
          | Event.Annot { ann = Event.Exit_x | Event.Flush; obj = Some o }
            when o.Event.id < Array.length states ->
              let s = states.(o.Event.id) in
              s.pubs_total <- s.pubs_total + 1
          | _ -> ())
        trace;
      let anomaly = ref None in
      Array.iter
        (fun s ->
          if s.k = s.pubs_total + 1 then s.o_in_flight <- true
          else if s.k > s.pubs_total + 1 then
            anomaly :=
              Some
                (Printf.sprintf
                   "object %s: durable count %d exceeds %d recorded \
                    publications + 1"
                   s.o_name s.k s.pubs_total))
        states;
      match !anomaly with
      | Some msg -> fail msg
      | None ->
          (* 4: torn-object check against publication k *)
          reconstruct_expected states trace;
          let objects =
            Array.to_list
              (Array.map
                 (fun s ->
                   {
                     obj_name = s.o_name;
                     words = s.o_words;
                     committed = s.k;
                     published = s.pubs_total;
                     in_flight = s.o_in_flight;
                     torn_words = torn_words_of fresh s;
                   })
                 states)
          in
          let torn_objs = List.filter (fun o -> o.torn_words > 0) objects in
          if torn_objs <> [] then
            mk_report
              ~verdict:
                (Torn
                   {
                     objects = List.length torn_objs;
                     words =
                       List.fold_left
                         (fun acc o -> acc + o.torn_words)
                         0 torn_objs;
                   })
              ~objects ~replayed:false
          else begin
            (* 5: the durable prefix must be PMC-consistent *)
            let prefix = durable_prefix states trace in
            if model_check && List.length prefix <= replay_budget then begin
              let rep = Pmc_trace.Replay.check ~cores:base.cores prefix in
              if Pmc_model.History.ok rep then
                mk_report ~verdict:clean ~objects ~replayed:true
              else
                mk_report
                  ~verdict:
                    (Prefix_inconsistent
                       (List.length rep.Pmc_model.History.violations))
                  ~objects ~replayed:true
            end
            else mk_report ~verdict:clean ~objects ~replayed:false
          end)

(* ---------------- every cut from one run ---------------- *)

let base_config ~log ~topology ~cores =
  { Config.default with cores; topology; farmem_log = log }

(* The cut window: the wall clock of the app's fault-free run. *)
let learn_window ~cfg (a : Runner.app) ~backend ~scale =
  max 1 (Runner.run ~cfg a ~backend ~scale).Runner.wall

(* What a run's marker saw at a cut cycle: the run still going — the
   cut fires, and the marker keeps what a cut run would have left — or
   every task already finished, when the cut is a no-op. *)
type mark =
  | Fired of {
      pushed : int array;  (* events per core's ring before the cut *)
      wall : int;
      durable : Farmem.sparse option;
    }
  | Idle

exception Last_cut

let pushed rec_ =
  Array.init (Pmc_trace.Recorder.cores rec_) (fun core ->
      Pmc_trace.Recorder.pushed rec_ ~core)

(* What a recorder of [capacity] events per core reports after [pushed]
   events per core plus [extra] Power_cut events on core 0: (held,
   dropped). *)
let ring_counts ~capacity pushed ~extra =
  let held = ref 0 and dropped = ref 0 in
  Array.iteri
    (fun core n ->
      let n = if core = 0 then n + extra else n in
      held := !held + min n capacity;
      dropped := !dropped + max 0 (n - capacity))
    pushed;
  (!held, !dropped)

let power_cut_event ~seq cycle : Event.t =
  {
    Event.seq;
    time = cycle;
    core = 0;
    kind = Event.Probe (Probe.Fault (Probe.F_power_cut { cycle }));
  }

(* One run under a trace recorder, with a marker at every distinct cut
   cycle in place of the crash config's single cut closure.  The markers
   are scheduled from [on_api] — after [Machine.create], before any task
   is spawned, the queue position the cut closure takes — so every
   tie-break at a cut cycle is the cut run's.  The access-plane fault
   path stays disarmed, so up to each cut the run *is* that cut's run: a
   marker that finds tasks live records what the cut would have left
   (ring occupancy, wall, sparse durable image), and the last one stops
   the run.  A cut past the last task is a no-op, as in the cut run,
   whose verdict is then judged on the finished run. *)
let judge_cuts ?(log = true) ?(capacity = Pmc_trace.Recorder.default_capacity)
    ?replay_budget ?model_check ?(topology = Topology.Star) (a : Runner.app)
    ~backend ~cores ~scale ~window (cuts : (int * int) list) : report list =
  if capacity <= 0 then invalid_arg "Crash.judge_cuts: capacity must be > 0";
  let cfg = base_config ~log ~topology ~cores in
  let cycles = List.sort_uniq compare (List.map snd cuts) in
  let last = List.fold_left max 0 cycles in
  let marks = Hashtbl.create 16 in
  let idle_seen = ref false in
  let run_state = ref None in
  let snapshot m = Option.map Farmem.sparse_image (Machine.farmem_opt m) in
  let on_api api =
    let m = Pmc.Api.machine api in
    let engine = Machine.engine m in
    (* with one cut the cut run's own rings serve; with more, a ring that
       dropped would lose an earlier cut's prefix, so they only grow *)
    let capacity = if List.length cycles = 1 then capacity else max_int in
    let rec_ = Pmc_trace.Recorder.attach ~capacity api in
    run_state := Some (m, rec_);
    List.iter
      (fun c ->
        Engine.at engine ~time:c (fun () ->
            if Engine.live_tasks engine > 0 then begin
              Hashtbl.replace marks c
                (Fired
                   {
                     pushed = pushed rec_;
                     wall = Engine.wall_time engine;
                     durable = snapshot m;
                   });
              if c = last && not !idle_seen then raise Last_cut
            end
            else begin
              idle_seen := true;
              Hashtbl.replace marks c Idle
            end))
      cycles
  in
  let failure =
    if cuts = [] then None
    else
      match Runner.run ~cfg ~on_api a ~backend ~scale with
      | _ | (exception Last_cut) -> None
      | exception Pmc_error.Error c ->
          Some (Printf.sprintf "typed error: %s" (Pmc_error.to_string c))
      | exception Engine.Watchdog n ->
          Some (Printf.sprintf "watchdog: no progress by cycle %d" n)
      | exception Engine.Deadlock msg -> Some ("deadlock: " ^ msg)
  in
  (* where the run ended: the last marker, a clean finish or the failure;
     every prefix judged below was recorded without a drop, so event
     [i] of the merged trace is the one stamped [seq = i] *)
  let trace, end_pushed, end_wall =
    match !run_state with
    | Some (m, rec_) ->
        ( lazy (Array.of_list (Pmc_trace.Recorder.events rec_)),
          pushed rec_,
          Engine.wall_time (Machine.engine m) )
    | None -> (lazy [||], [||], 0)
  in
  let end_durable =
    lazy (Option.bind !run_state (fun (m, _) -> snapshot m))
  in
  (* a no-op cut's run ends at the later of its last entry and the cut;
     markers past the last entry hide the former, so learn it from a
     fault-free run when they do *)
  let fault_free_wall = lazy (Runner.run ~cfg a ~backend ~scale).Runner.wall in
  let idle_wall c =
    if end_wall > last || c = last then end_wall
    else max c (Lazy.force fault_free_wall)
  in
  let prefix n tail =
    let trace = Lazy.force trace in
    let l = ref tail in
    for i = n - 1 downto 0 do
      l := trace.(i) :: !l
    done;
    !l
  in
  (* what a cut run's recorder reports: a cut adds its Power_cut event *)
  let base ~seed ~cut ~wall ~pushed =
    let events, dropped =
      ring_counts ~capacity pushed ~extra:(if cut = None then 0 else 1)
    in
    {
      app = a.Runner.name; backend; cores; scale; seed; window; cut; log;
      verdict = Completed; wall; objects = []; recovery = None; events;
      dropped; replayed = false;
    }
  in
  (* judge from the trace a cut run's recorder holds — never read when it
     overflowed the ring — and the sparse snapshot in a fresh device *)
  let judge_at ~seed ~cut ~wall ~pushed durable =
    let base = base ~seed ~cut ~wall ~pushed in
    let n = Array.fold_left ( + ) 0 pushed in
    let trace =
      if base.dropped > 0 then []
      else
        prefix n
          (match cut with
          | Some c -> [ power_cut_event ~seq:n c ]
          | None -> [])
    in
    judge ?replay_budget ?model_check base ~trace
      ~durable:
        (Option.map
           (fun img () ->
             let fresh =
               Farmem.of_sparse
                 ~word_occupancy:cfg.Config.farmem_word_occupancy img
             in
             (fresh, Farmem.allocs fresh))
           durable)
  in
  List.map
    (fun (seed, c) ->
      match (Hashtbl.find_opt marks c, failure) with
      | Some (Fired { pushed; wall; durable }), _ ->
          judge_at ~seed ~cut:(Some c) ~wall ~pushed durable
      | Some Idle, None ->
          judge_at ~seed ~cut:None ~wall:(idle_wall c) ~pushed:end_pushed
            (Lazy.force end_durable)
      | _, Some msg ->
          {
            (base ~seed ~cut:None ~wall:end_wall ~pushed:end_pushed) with
            verdict = Check_error msg;
          }
      | None, None ->
          (* a run neither fails nor ends before its last marker *)
          assert false)
    cuts

let crash_one ?(log = true) ?window ?capacity ?replay_budget ?model_check
    ?(topology = Topology.Star) (a : Runner.app) ~backend ~cores ~scale ~seed
    : report =
  (* the cut window defaults to the run's own wall clock, learned from a
     fault-free twin — the crash config leaves the access-plane fault
     path disarmed, so the pre-cut timeline is the fault-free timeline *)
  let window =
    match window with
    | Some w -> max 1 w
    | None ->
        learn_window ~cfg:(base_config ~log ~topology ~cores) a ~backend ~scale
  in
  List.hd
    (judge_cuts ~log ?capacity ?replay_budget ?model_check ~topology a ~backend
       ~cores ~scale ~window
       [ (seed, Fault.power_cut_cycle ~fault_seed:seed ~window) ])

(* ---------------- the seed sweep ---------------- *)

type sweep = {
  reports : report list;  (* in run order *)
  total : int;
  cuts : int;             (* experiments whose cut actually fired *)
  recovered : int;
  completed : int;
  torn : int;
  inconsistent : int;
  errors : int;
}

let summarize (reports : report list) : sweep =
  let count p = List.length (List.filter p reports) in
  {
    reports;
    total = List.length reports;
    cuts = count (fun r -> r.cut <> None);
    recovered = count (fun r -> r.verdict = Recovered);
    completed = count (fun r -> r.verdict = Completed);
    torn = count (fun r -> match r.verdict with Torn _ -> true | _ -> false);
    inconsistent =
      count (fun r ->
          match r.verdict with Prefix_inconsistent _ -> true | _ -> false);
    errors =
      count (fun r ->
          match r.verdict with Check_error _ -> true | _ -> false);
  }

let ok s = s.torn = 0 && s.inconsistent = 0 && s.errors = 0

let sweep ?(log = true) ?capacity ?replay_budget ?model_check
    ?(topology = Topology.Star) ~apps ~backend ~cores ~scale ~seeds () : sweep =
  (* the cut window is learned once per app from its fault-free twin, so
     every seed of an app shares one deterministic window — which also
     keeps the window inside job keys stable — and one run judges every
     seed's cut *)
  let cfg = base_config ~log ~topology ~cores in
  summarize
    (List.concat_map
       (fun (a : Runner.app) ->
         let window = learn_window ~cfg a ~backend ~scale in
         judge_cuts ~log ?capacity ?replay_budget ?model_check ~topology a
           ~backend ~cores ~scale ~window
           (List.map
              (fun seed ->
                (seed, Fault.power_cut_cycle ~fault_seed:seed ~window))
              seeds))
       apps)

(* ---------------- printing ---------------- *)

let verdict_name = function
  | Completed -> "completed"
  | Recovered -> "recovered"
  | Torn _ -> "TORN"
  | Prefix_inconsistent _ -> "INCONSISTENT"
  | Check_error _ -> "ERROR"

let pp_verdict ppf = function
  | Completed -> Fmt.pf ppf "completed (cut past wall)"
  | Recovered -> Fmt.pf ppf "recovered"
  | Torn { objects; words } ->
      Fmt.pf ppf "TORN: %d object(s), %d word(s)" objects words
  | Prefix_inconsistent n ->
      Fmt.pf ppf "INCONSISTENT: %d violation(s) in the durable prefix" n
  | Check_error msg -> Fmt.pf ppf "ERROR: %s" msg

let pp_report ppf (r : report) =
  Fmt.pf ppf "%-12s %-6s seed=%-5d %s wall=%-9d objs=%d %a%s" r.app
    (Pmc.Backends.to_string r.backend)
    r.seed
    (match r.cut with
    | Some c -> Printf.sprintf "cut=%-9d" c
    | None -> Printf.sprintf "cut=%-9s" "-")
    r.wall (List.length r.objects) pp_verdict r.verdict
    (if r.replayed then " replay=ok" else "")

let pp_sweep ppf (s : sweep) =
  Fmt.pf ppf
    "%d experiments: %d cuts injected, %d recovered, %d completed, %d torn, \
     %d inconsistent, %d errors"
    s.total s.cuts s.recovered s.completed s.torn s.inconsistent s.errors
