(* Properties of the flat hot core (Bigarray memories, arena scheduler,
   no-sink probe fast path).

   The byte-level flat-vs-seed contract lives in the runtest goldens
   (flat_golden.expected, pmc_demo_flat.expected); these tests pin the
   properties that keep that contract stable under change:

     - the engine fast path (a consume that stays ahead of every other
       pending entry) allocates nothing at all;
     - the suspension path allocates only the runtime's continuation —
       a small bounded number of minor words per event;
     - a failed pure-poll re-check in the scheduler allocates nothing;
     - [Engine.poll_wait] is the plain consume loop it documents, event
       for event, on random engine-only programs;
     - runs are bit-repeatable for random (app, back-end, cores, chaos)
       points, not just the golden matrix;
     - attaching a trace sink never changes timing or values: the
       traced and untraced executions of the same case agree on every
       architectural counter (the probe/trace gating is observation,
       not behaviour);
     - a machine pays only for the memory it touches, and its stores
       are zero however dirty the memory the process freed before it
       was: building a 1024-tile machine allocates a bounded number of
       minor words, repeated 1024-tile runs keep the peak RSS bounded,
       and large machines built on two domains give the width-1
       results;
     - a machine's tile memories (and D-cache line stores) are views
       of one mapping, so the decoder alone keeps each access inside
       its tile, and the mappings die with the machine. *)

open Pmc_sim

(* ---------------- allocation ---------------- *)

(* One task, no competitors: every consume takes the engine's in-place
   fast path.  The loop must allocate zero words — the assertion allows
   a small constant for the spawn fiber and run bookkeeping only. *)
let test_fast_path_zero_alloc () =
  let e = Engine.create { Config.small with cores = 1 } in
  let iters = 100_000 in
  Engine.spawn e ~core:0 (fun () ->
      for i = 1 to iters do
        Engine.consume e Stats.Busy ((i land 7) + 1)
      done);
  let w0 = Gc.minor_words () in
  Engine.run e;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "fast path allocates nothing (%d consumes cost %.0f \
                     words)" iters dw)
    true (dw < 5_000.0)

(* Two tasks in lock-step: every consume overtakes the other pending
   entry, so every event goes through suspend/resume.  The arena keeps
   the engine's own cost at zero; what remains is the effect handler's
   continuation, a bounded constant per suspension. *)
let test_suspension_alloc_bounded () =
  let e = Engine.create { Config.small with cores = 2 } in
  let iters = 20_000 in
  for c = 0 to 1 do
    Engine.spawn e ~core:c (fun () ->
        for _ = 1 to iters do
          Engine.consume e Stats.Busy 3
        done)
  done;
  let w0 = Gc.minor_words () in
  Engine.run e;
  let dw = Gc.minor_words () -. w0 in
  let per_event = dw /. float_of_int (2 * iters) in
  Alcotest.(check bool)
    (Printf.sprintf "suspension path bounded (%.1f words/event)" per_event)
    true (per_event < 48.0)

(* 31 tasks park in [poll_wait] on a clock predicate while one task
   keeps consuming, so nearly every scheduled event is a failed re-check
   run by the scheduler.  Each failed re-check charges one quantum of
   lock stall, which counts them exactly. *)
let test_poll_recheck_zero_alloc () =
  let cores = 32 and quantum = 4 and release = 40_000 in
  let e = Engine.create { Config.small with cores } in
  let pred () = Engine.now e >= release in
  for c = 1 to cores - 1 do
    Engine.spawn e ~core:c (fun () ->
        Engine.poll_wait e ~cat:Stats.Lock_stall ~quantum ~pred)
  done;
  Engine.spawn e ~core:0 (fun () ->
      while Engine.now e < release do
        Engine.consume e Stats.Busy 256
      done);
  let w0 = Gc.minor_words () in
  Engine.run e;
  let dw = Gc.minor_words () -. w0 in
  let stall = ref 0 in
  for c = 0 to cores - 1 do
    stall := !stall + Stats.get (Stats.core (Engine.stats e) c) Stats.Lock_stall
  done;
  let rechecks = !stall / quantum in
  let per = dw /. float_of_int rechecks in
  Alcotest.(check bool)
    (Printf.sprintf "failed re-checks allocate nothing (%d cost %.0f words, \
                     %.3f each)" rechecks dw per)
    true (per < 0.1)

(* ---------------- poll_wait contract ---------------- *)

(* Random engine-only programs, each run twice: once with
   [Engine.poll_wait] and once with the loop it documents,

     [while not (pred ()) do Engine.consume e cat quantum done]

   The two runs must agree on every observation: the global log of pred
   successes, resumes, flag bumps and fired closures (with core and
   time), every core's per-category stall totals, [wall_time] and the
   [Watchdog] cycle. *)

type op =
  | Work of Stats.category * int
  | Bump of int                 (* flags.(f) += 1, from the task *)
  | Post of int * int           (* a closure bumps flag f after a delay *)
  | Wait of {
      flag : int;
      target : int;
      quantum : int;
      cat : Stats.category;
      until : int option;       (* the pred also holds from this cycle *)
    }

type program = {
  max_cycles : int;
  tasks : (int * op list) list;  (* start skew, ops; task i on core i *)
}

let n_flags = 2

type outcome = Done | Watchdog of int

let run_program ~poll prog =
  let cores = List.length prog.tasks in
  let e =
    Engine.create { Config.small with cores; max_cycles = prog.max_cycles }
  in
  let flags = Array.make n_flags 0 in
  let log = ref [] in
  let note kind core k time = log := (kind, core, k, time) :: !log in
  List.iteri
    (fun core (start, ops) ->
      Engine.spawn e ~start ~core (fun () ->
          List.iteri
            (fun k op ->
              match op with
              | Work (cat, n) -> Engine.consume e cat n
              | Bump f ->
                  flags.(f) <- flags.(f) + 1;
                  note "bump" core k (Engine.now e)
              | Post (f, delay) ->
                  Engine.at e ~time:(Engine.now e + delay) (fun () ->
                      flags.(f) <- flags.(f) + 1;
                      note "fire" core k (Engine.wall_time e))
              | Wait { flag; target; quantum; cat; until } ->
                  let pred () =
                    let ok =
                      flags.(flag) >= target
                      || match until with
                         | Some d -> Engine.now e >= d
                         | None -> false
                    in
                    if ok then
                      note "success" (Engine.core_id e) k (Engine.now e);
                    ok
                  in
                  if poll then Engine.poll_wait e ~cat ~quantum ~pred
                  else
                    while not (pred ()) do
                      Engine.consume e cat quantum
                    done;
                  note "resume" core k (Engine.now e))
            ops))
    prog.tasks;
  let outcome =
    match Engine.run e with
    | () -> Done
    | exception Engine.Watchdog c -> Watchdog c
  in
  let stalls =
    List.init cores (fun c ->
        List.map (Stats.get (Stats.core (Engine.stats e) c)) Stats.categories)
  in
  (outcome, List.rev !log, stalls, Engine.wall_time e)

let agree prog = run_program ~poll:true prog = run_program ~poll:false prog

let wait ?until ?(cat = Stats.Lock_stall) ?(target = 1) ~quantum flag =
  Wait { flag; target; quantum; cat; until }

(* Quanta include one beyond the 2048-cycle wake-wheel window, so parked
   waiters also travel through the overflow heap. *)
let gen_program =
  let open QCheck.Gen in
  let cat = oneofl Stats.[ Busy; Lock_stall; Write_stall ] in
  let op =
    frequency
      [
        ( 3,
          map2 (fun c n -> Work (c, n)) cat
            (oneofl [ 1; 3; 4; 8; 13; 2105 ]) );
        (2, map (fun f -> Bump f) (int_bound (n_flags - 1)));
        (2, map2 (fun f d -> Post (f, d)) (int_bound (n_flags - 1))
              (oneofl [ 0; 1; 4; 7 ]));
        ( 5,
          let* flag = int_bound (n_flags - 1) in
          let* target = int_range 1 3 in
          let* quantum = oneofl [ 1; 4; 4; 4; 7; 2100 ] in
          let* cat = oneofl Stats.[ Lock_stall; Lock_stall; Busy ] in
          let+ until = opt ~ratio:0.4 (int_range 0 6000) in
          Wait { flag; target; quantum; cat; until } );
      ]
  in
  let task =
    pair (oneofl [ 0; 0; 0; 1; 4; 9 ]) (list_size (int_range 1 6) op)
  in
  let+ max_cycles = oneofl [ 3_000; 20_000 ]
  and+ tasks = list_size (int_range 2 7) task in
  { max_cycles; tasks }

let print_program prog =
  let op = function
    | Work (c, n) -> Printf.sprintf "work %s %d" (Stats.category_name c) n
    | Bump f -> Printf.sprintf "bump %d" f
    | Post (f, d) -> Printf.sprintf "post %d +%d" f d
    | Wait w ->
        Printf.sprintf "wait f%d>=%d q%d %s%s" w.flag w.target w.quantum
          (Stats.category_name w.cat)
          (match w.until with
          | Some d -> " until " ^ string_of_int d
          | None -> "")
  in
  Printf.sprintf "max %d\n%s" prog.max_cycles
    (String.concat "\n"
       (List.mapi
          (fun i (s, ops) ->
            Printf.sprintf "  task %d @%d: %s" i s
              (String.concat "; " (List.map op ops)))
          prog.tasks))

let prop_poll_wait_is_loop =
  QCheck.Test.make ~count:300
    ~name:"poll_wait = while not pred do consume cat quantum done"
    (QCheck.make ~print:print_program gen_program)
    agree

(* Fixed programs for the shapes random ones hit only sometimes. *)
let test_poll_wait_shapes () =
  let check name prog =
    Alcotest.(check bool) (name ^ ": poll_wait = loop") true (agree prog)
  in
  (* five waiters parked side by side; the middle one wins on its
     deadline, then posts at delay 0 (behind the waiters still queued in
     its slot) and works one quantum (behind the ones already re-parked) *)
  check "winner mid-run"
    {
      max_cycles = 20_000;
      tasks =
        List.init 5 (fun i ->
            if i = 2 then
              (0, [ wait ~until:40 ~quantum:4 0; Post (0, 0);
                    Work (Stats.Busy, 4); Post (1, 4) ])
            else (0, [ wait ~quantum:4 0; wait ~quantum:4 1 ]));
    };
  (* waiters parked beyond the wheel window, released by a late bump *)
  check "overflow heap"
    {
      max_cycles = 20_000;
      tasks =
        [ (0, [ wait ~quantum:2100 0 ]); (0, [ wait ~quantum:2100 0 ]);
          (3, [ wait ~quantum:2100 0; wait ~quantum:4 1 ]);
          (0, [ Work (Stats.Busy, 5000); Bump 0;
                Work (Stats.Busy, 3); Bump 1 ]) ];
    };
  (* a gang re-parked beyond the window is ordered by sequence number
     against a waiter that parked at the same cycle just before it *)
  check "overflow order"
    {
      max_cycles = 20_000;
      tasks =
        [ (0, [ Work (Stats.Busy, 5); wait ~quantum:2100 0 ]);
          (0, [ Work (Stats.Busy, 2105); wait ~quantum:2100 0 ]);
          (0, [ Work (Stats.Busy, 4000); Bump 0 ]) ];
    };
  let starved =
    {
      max_cycles = 3_000;
      tasks =
        [ (0, [ wait ~quantum:4 0 ]); (0, [ wait ~quantum:4 1 ]);
          (0, [ wait ~cat:Stats.Busy ~quantum:4 0 ]) ];
    }
  in
  check "starved" starved;
  match run_program ~poll:true starved with
  | Watchdog c, _, _, _ -> Alcotest.(check int) "watchdog cycle" 3_004 c
  | Done, _, _, _ -> Alcotest.fail "a starved waiter must trip the watchdog"

(* ---------------- randomized equivalence ---------------- *)

let cases =
  [ ("streaming", 6); ("stencil", 2); ("histogram", 12); ("reduce", 48) ]

let backends =
  [ Pmc.Backends.Nocc; Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Spm ]

(* Everything deterministic a run produces, as one comparable value. *)
let digest ?on_api ~chaos (app_name, scale) backend cores =
  let app =
    match Pmc_apps.Registry.find app_name with
    | Some a -> a
    | None -> failwith ("unknown app " ^ app_name)
  in
  let cfg = { Config.small with cores } in
  let cfg =
    match chaos with None -> cfg | Some seed -> Config.chaos ~seed cfg
  in
  let r = Pmc_apps.Runner.run ~cfg ?on_api app ~backend ~scale in
  let s = r.Pmc_apps.Runner.summary in
  ( ( r.Pmc_apps.Runner.wall,
      r.Pmc_apps.Runner.checksum,
      s.Stats.instructions,
      s.Stats.noc_flits,
      s.Stats.noc_writes,
      s.Stats.flushes ),
    ( s.Stats.lock_acquires,
      s.Stats.lock_transfers,
      s.Stats.dcache_misses,
      s.Stats.dcache_hits,
      s.Stats.icache_misses,
      List.map (Stats.category_cycles s) Stats.categories ) )

let arb_point =
  let print (case, backend, cores, chaos) =
    Printf.sprintf "%s/%d on %s c%d chaos=%s" (fst case) (snd case)
      (Pmc.Backends.to_string backend)
      cores
      (match chaos with None -> "-" | Some s -> string_of_int s)
  in
  (* cores >= 4: below that, streaming folds two pipeline roles onto one
     core and the per-core scope discipline (one task per core) breaks —
     a pre-existing app limitation, not a property of the hot core *)
  QCheck.make ~print
    QCheck.Gen.(
      quad (oneofl cases) (oneofl backends) (oneofl [ 4; 8 ])
        (oneofl [ None; None; Some 3; Some 11 ]))

let prop_repeatable =
  QCheck.Test.make ~count:20
    ~name:"flat core: two runs of the same point are identical"
    arb_point
    (fun (case, backend, cores, chaos) ->
      digest ~chaos case backend cores = digest ~chaos case backend cores)

let prop_trace_transparent =
  QCheck.Test.make ~count:20
    ~name:"flat core: attaching a trace sink changes no counter"
    arb_point
    (fun (case, backend, cores, chaos) ->
      let untraced = digest ~chaos case backend cores in
      let recorder = ref None in
      let traced =
        digest
          ~on_api:(fun api ->
            recorder := Some (Pmc_trace.Recorder.attach api))
          ~chaos case backend cores
      in
      ignore !recorder;
      untraced = traced)

(* ---------------- zero-on-demand stores ---------------- *)

let big_cfg topo cores =
  { Config.default with
    cores; topology = Result.get_ok (Topology.resolve topo ~cores) }

let run_kv ?(topo = "mesh:16x16") ?(cores = 256) backend =
  Pmc_apps.Runner.run ~cfg:(big_cfg topo cores) Pmc_apps.Kv_store.app
    ~backend ~scale:2

let kv_sig (r : Pmc_apps.Runner.result) =
  (r.checksum, r.wall, (Option.get r.service).Pmc_apps.Service.lat_digest)

let all_zero (m : Mem.t) =
  let rec go i = i >= Mem.length m || (Mem.get_u8 m i = 0 && go (i + 1)) in
  go 0

(* The store layer on its own, at every size a machine uses: 8 B
   scratch, 64 B staging, D-cache data, a tile memory, SDRAM and the
   farmem media.  Stores are filled with ones, dropped and collected;
   fresh stores of the same sizes must read zero byte for byte, and a
   view taken with [sub] must outlive its parent. *)
let test_mem_reuse_zero () =
  let sizes = [ 8; 64; 4095; 4096; 16 * 1024; 64 * 1024; 16 lsl 20 ] in
  List.iter
    (fun n ->
      for _ = 1 to 8 do
        Bigarray.Array1.fill (Mem.create n) '\xff'
      done)
    sizes;
  Gc.full_major ();
  List.iter
    (fun n ->
      let fresh = List.init 8 (fun _ -> Mem.create n) in
      Alcotest.(check bool) (Printf.sprintf "size %d: zero" n) true
        (List.for_all (fun m -> Mem.length m = n && all_zero m) fresh))
    sizes;
  (* per-tile stores are views of one mapping: a machine's tile
     memories and D-cache lines, 256 and 1024 tiles *)
  let shapes = [ (256, 64 * 1024); (1024, 16 * 1024); (3, 100) ] in
  List.iter
    (fun (count, len) ->
      for _ = 1 to 4 do
        Array.iter (fun v -> Bigarray.Array1.fill v '\xff')
          (Mem.create_views ~count len)
      done)
    shapes;
  Gc.full_major ();
  List.iter
    (fun (count, len) ->
      let views = Mem.create_views ~count len in
      Alcotest.(check bool) (Printf.sprintf "%d views of %d: zero" count len)
        true
        (Array.length views = count
        && Array.for_all (fun v -> Mem.length v = len && all_zero v) views))
    shapes;
  let view =
    let m = Mem.create (64 * 1024) in
    Mem.set_u8 m 4097 7;
    Bigarray.Array1.sub m 4096 8
  in
  Gc.full_major ();
  Alcotest.(check int) "sub view outlives its parent" 7 (Mem.get_u8 view 1);
  let last =
    let views = Mem.create_views ~count:4 4096 in
    Mem.set_u8 views.(3) 4095 9;
    views.(3)
  in
  Gc.full_major ();
  Alcotest.(check int) "a view outlives its siblings" 9 (Mem.get_u8 last 4095);
  let a = Mem.create 8192 and b = Bigarray.Array1.create Char C_layout 8192 in
  Bigarray.Array1.fill b '\000';
  Alcotest.(check bool) "compare as a Bigarray" true (compare a b = 0);
  Alcotest.(check int) "hash as a Bigarray" (Hashtbl.hash b) (Hashtbl.hash a);
  Alcotest.(check bool) "marshal as a Bigarray" true
    (Marshal.from_string (Marshal.to_string a []) 0 = b)

(* A 256-tile machine with farmem attached: write nonzero words across
   its SDRAM, every tile memory, every D-cache and the farmem media and
   device cache; drop it and collect.  The next machine must read zero
   everywhere, and a kv_store run made afterwards must match one made
   before the dirtying exactly.  D-cache line data and the farmem device
   cache are only ever read after being overwritten, so their fresh
   contents show only as "no line resident" here; the store-level test
   above pins them byte for byte at their sizes. *)
let test_machine_reuse_zero () =
  let before = kv_sig (run_kv Pmc.Backends.Swcc) in
  let cfg = big_cfg "mesh:16x16" 256 in
  (* every word of each store, by byte offset; farmem words 0-1 hold
     the redo log's superblock *)
  let each_word bytes f =
    for w = 0 to (bytes / 4) - 1 do f (4 * w) done
  in
  let visit m ~sdram ~local ~dcache ~farmem =
    let mc = Machine.config m in
    each_word mc.Config.sdram_bytes sdram;
    for tile = 0 to mc.cores - 1 do
      each_word mc.local_mem_bytes (fun off ->
          local (Machine.local_addr m ~tile ~off));
      dcache (Machine.dcache m ~core:tile)
        (mc.dcache_sets * mc.dcache_ways * mc.line_bytes)
    done;
    let f = Machine.farmem m in
    each_word (Farmem.size f) (fun a -> if a >= 8 then farmem f a)
  in
  let dirty = Machine.create cfg in
  visit dirty
    ~sdram:(fun a -> Machine.poke_u32 dirty a (Int32.of_int (a lor 1)))
    ~local:(fun a -> Machine.poke_u32 dirty a (-1l))
    ~dcache:(fun c bytes ->
      each_word bytes (fun a -> Cache.store_u32_int c a (a lor 1)))
    ~farmem:(fun f a -> Farmem.poke_u32 f a (a lor 1));
  Gc.full_major ();
  let m = Machine.create cfg in
  let nonzero = ref 0 in
  let expect_zero v = if v <> 0 then incr nonzero in
  let peek a = expect_zero (Int32.to_int (Machine.peek_u32 m a)) in
  visit m ~sdram:peek ~local:peek
    ~dcache:(fun c bytes ->
      each_word bytes (fun a -> if Cache.resident c a then incr nonzero);
      each_word bytes (fun a -> expect_zero (Cache.load_u32_int c a)))
    ~farmem:(fun f a -> expect_zero (Farmem.peek_u32 f a));
  Alcotest.(check int) "fresh machine reads zero everywhere" 0 !nonzero;
  Alcotest.(check (triple int64 int int)) "kv_store after dirtying" before
    (kv_sig (run_kv Pmc.Backends.Swcc))

(* The tile memories are adjacent views of one mapping, so only the
   decoder keeps an access inside its tile.  Across every boundary of an
   8-tile machine, a word written next to it — untimed, by the owning
   core, or posted over the NoC — never shows on the other side, and an
   access or a DMA / NoC offset that straddles it is refused. *)
let test_tile_isolation () =
  let cfg = { Config.default with cores = 8 } in
  let n = cfg.Config.cores and lmb = cfg.local_mem_bytes in
  let word m ~tile ~off = Machine.local_addr m ~tile ~off in
  let first m i = word m ~tile:i ~off:0
  and last m i = word m ~tile:i ~off:(lmb - 4) in
  let check_zero m what addrs =
    List.iter
      (fun (i, a) ->
        Alcotest.(check int32) (Printf.sprintf "%s, tile %d" what i) 0l
          (Machine.peek_u32 m a))
      addrs
  in
  let tiles lo hi = List.init (hi - lo) (fun k -> lo + k) in
  (* untimed *)
  let m = Machine.create cfg in
  List.iter (fun i -> Machine.poke_u32 m (last m i) (-1l)) (tiles 0 n);
  check_zero m "poked last word stays in its tile"
    (List.map (fun i -> (i, first m i)) (tiles 1 n));
  List.iter (fun i -> Machine.poke_u32 m (last m i) 0l) (tiles 0 n);
  List.iter (fun i -> Machine.poke_u32 m (first m i) (-1l)) (tiles 0 n);
  check_zero m "poked first word stays in its tile"
    (List.map (fun i -> (i, last m i)) (tiles 0 (n - 1)));
  (* timed: each core stores one edge word of its own tile and posts
     the same edge of a neighbour's, then loads its tile's other edge *)
  let timed what ~write ~read ~neighbour =
    let m = Machine.create cfg in
    let seen = Array.make n (-1l) in
    for core = 0 to n - 1 do
      Machine.spawn m ~core (fun () ->
          Machine.store_u32 m ~shared:false (write m core) (-1l);
          let nb = neighbour core in
          if nb >= 0 && nb < n then
            Machine.store_u32 m ~shared:false (write m nb) (-1l);
          Machine.noc_drain m;
          Machine.busy m 10_000;
          seen.(core) <- Machine.load_u32 m ~shared:false (read m core))
    done;
    Machine.run m;
    Alcotest.(check (array int32)) what (Array.make n 0l) seen
  in
  timed "timed last-word stores stay in their tiles" ~write:last ~read:first
    ~neighbour:succ;
  timed "timed first-word stores stay in their tiles" ~write:first ~read:last
    ~neighbour:pred;
  (* straddling a boundary *)
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let m = Machine.create cfg in
  let straddle = word m ~tile:2 ~off:(lmb - 2) in
  refused "peek" (fun () -> Machine.peek_u32 m straddle);
  refused "poke" (fun () -> Machine.poke_u32 m straddle 1l);
  (* a task's exception leaves [Machine.run], so a failure surfaces *)
  Machine.spawn m ~core:2 (fun () ->
      refused "timed load" (fun () ->
          ignore (Machine.load_u32 m ~shared:false straddle));
      refused "timed store" (fun () ->
          Machine.store_u32 m ~shared:false straddle 1l);
      refused "posted store" (fun () ->
          Machine.store_u32 m ~shared:false (word m ~tile:3 ~off:(lmb - 2)) 1l);
      refused "NoC push past the end" (fun () ->
          Machine.noc_push m ~dst:3 ~src_off:0 ~dst_off:(lmb - 2) ~len:4);
      refused "NoC push before the start" (fun () ->
          Machine.noc_push m ~dst:3 ~src_off:0 ~dst_off:(-4) ~len:4);
      refused "DMA past the end" (fun () ->
          Machine.blit_sdram_to_local m ~core:2 ~sdram:0 ~off:(lmb - 2)
            ~len:4);
      refused "DMA before the start" (fun () ->
          Machine.blit_sdram_to_local m ~core:2 ~sdram:0 ~off:(-4) ~len:4));
  Machine.run m;
  check_zero m "nothing landed"
    (List.concat_map (fun i -> [ (i, first m i); (i, last m i) ]) (tiles 0 n))

let maps_lines () =
  match In_channel.with_open_text "/proc/self/maps" In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> Some (List.length (String.split_on_char '\n' text))

(* A machine's joint mappings die with it: after twenty 256-tile
   machines, each touched in every tile, are built and dropped, a full
   collection leaves the process's mappings where they started. *)
let test_mapping_lifetime () =
  match maps_lines () with
  | None -> ()
  | Some _ ->
      Gc.full_major ();
      let before = Option.get (maps_lines ()) in
      let cfg = big_cfg "mesh:16x16" 256 in
      for _ = 1 to 20 do
        let m = Machine.create cfg in
        for tile = 0 to cfg.Config.cores - 1 do
          Machine.poke_u32 m (Machine.local_addr m ~tile ~off:0) 1l
        done;
        ignore (Sys.opaque_identity m)
      done;
      Gc.full_major ();
      let after = Option.get (maps_lines ()) in
      Alcotest.(check bool)
        (Printf.sprintf "/proc/self/maps: %d lines before, %d after" before
           after)
        true
        (after - before <= 8)

(* Large machines built and run on two domains at once give the width-1
   results (the DESIGN.md §11 re-entrancy rule): stores are per machine,
   and a collection on either domain unmaps only dead ones. *)
let test_domains_large () =
  let points =
    [| (Pmc.Backends.Swcc, "mesh:16x16", 256);
       (Pmc.Backends.Dsm, "mesh:16x16", 256);
       (Pmc.Backends.Farmem, "mesh:16x16", 256);
       (Pmc.Backends.Nocc, "hier:32x32", 1024) |]
  in
  let run (backend, topo, cores) =
    let r = run_kv ~topo ~cores backend in
    (kv_sig r, r.Pmc_apps.Runner.summary)
  in
  let at jobs =
    Pmc_par.Pool.with_pool ~jobs (fun pool ->
        Pmc_par.Pool.map_ordered pool points ~f:run)
  in
  let w1 = at 1 in
  Alcotest.(check bool) "width 2 = width 1" true (at 2 = w1)

(* Building a 1024-tile machine allocates few minor words: the I-cache
   tags are two flat arrays per tile and the NoC FIFO rows are lazy
   (nested per-set arrays cost ~2.2M words here). *)
let test_create_alloc_bounded () =
  let cfg = big_cfg "hier:32x32" 1024 in
  let w0 = Gc.minor_words () in
  let m = Machine.create cfg in
  let dw = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity m);
  Alcotest.(check bool)
    (Printf.sprintf "hier:32x32 Machine.create: %.0f minor words" dw)
    true (dw < 500_000.0)

let status_kb field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = field ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)

(* Ten consecutive 1024-tile kv_store runs in one process: a machine
   holds only the pages it touched, and dead machines' stores are
   charged to the GC, so the peak stays far below ten (or even one)
   fully resident machines (~200 MB each).  The peak is read from
   VmHWM after resetting it through /proc/self/clear_refs, and is taken
   relative to the resident size at the reset; without procfs the check
   is skipped. *)
let test_repeated_runs_rss () =
  let reset_peak () =
    match Out_channel.with_open_text "/proc/self/clear_refs"
            (fun oc -> output_string oc "5") with
    | () -> true
    | exception Sys_error _ -> false
  in
  Gc.compact ();
  match status_kb "VmRSS" with
  | Some _ when reset_peak () ->
      let base = Option.get (status_kb "VmRSS") in
      let backends = Array.of_list Pmc.Backends.all in
      for i = 0 to 9 do
        let backend = backends.(i mod Array.length backends) in
        let r = run_kv ~topo:"hier:32x32" ~cores:1024 backend in
        Alcotest.(check bool)
          (Pmc.Backends.to_string backend ^ " checksum") true
          (Pmc_apps.Runner.ok r)
      done;
      let peak = Option.get (status_kb "VmHWM") in
      let grew_mb = float_of_int (peak - base) /. 1024.0 in
      Alcotest.(check bool)
        (Printf.sprintf "peak RSS grew %.1f MB over 10 runs" grew_mb)
        true (grew_mb < 120.0)
  | _ -> ()

let suite =
  ( "flat",
    [
      Alcotest.test_case "fast path zero alloc" `Quick
        test_fast_path_zero_alloc;
      Alcotest.test_case "suspension alloc bounded" `Quick
        test_suspension_alloc_bounded;
      Alcotest.test_case "poll re-check zero alloc" `Quick
        test_poll_recheck_zero_alloc;
      Alcotest.test_case "poll_wait shapes" `Quick test_poll_wait_shapes;
      QCheck_alcotest.to_alcotest prop_poll_wait_is_loop;
      QCheck_alcotest.to_alcotest prop_repeatable;
      QCheck_alcotest.to_alcotest prop_trace_transparent;
      Alcotest.test_case "stores read zero after reuse" `Quick
        test_mem_reuse_zero;
      Alcotest.test_case "machine reads zero after a dirty one" `Quick
        test_machine_reuse_zero;
      Alcotest.test_case "tile memories stay apart" `Quick
        test_tile_isolation;
      Alcotest.test_case "joint mappings die with the machine" `Quick
        test_mapping_lifetime;
      Alcotest.test_case "large machines on two domains" `Quick
        test_domains_large;
      Alcotest.test_case "1024-tile create allocation bounded" `Quick
        test_create_alloc_bounded;
      Alcotest.test_case "repeated 1024-tile runs RSS bounded" `Quick
        test_repeated_runs_rss;
    ] )
