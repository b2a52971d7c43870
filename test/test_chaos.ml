(* Chaos subsystem tests: the zero-cost-when-off identity, retry-aware
   NoC draining, bounded lock acquisition, typed errors with attribution,
   and the qcheck wall of seeds — under any seeded fault schedule a run
   either completes with the right answer or fails with a typed error,
   never a silent wrong result. *)

open Pmc_sim

let cfg_armed ~seed = Config.chaos ~seed { Config.small with cores = 4 }

(* a snapshot's value of the counter declared under [name] *)
let count f name = Fault.get f (Fault.slot name)

(* ---------------- zero-cost-when-off ---------------- *)

let test_disarmed_is_identical () =
  (* arming the chaos knobs and then disarming them must reproduce the
     never-armed machine bit for bit *)
  List.iter
    (fun backend ->
      let app =
        match Pmc_apps.Registry.find "histogram" with
        | Some a -> a
        | None -> Alcotest.fail "histogram app missing"
      in
      let id =
        Pmc_apps.Chaos.zero_cost_identity app ~backend ~cores:4 ~scale:8
          ~seed:11
      in
      Alcotest.(check bool)
        (Printf.sprintf "disarmed %s identical: %s"
           (Pmc.Backends.to_string backend)
           id.Pmc_apps.Chaos.detail)
        true id.Pmc_apps.Chaos.identical)
    [ Pmc.Backends.Swcc; Pmc.Backends.Dsm; Pmc.Backends.Farmem ]

let test_no_faults_clears_knobs () =
  let c = Config.no_faults (Config.chaos ~seed:3 Config.default) in
  Alcotest.(check bool) "disarmed" false (Config.faults_enabled c);
  Alcotest.(check bool) "armed" true
    (Config.faults_enabled (Config.chaos ~seed:3 Config.default))

(* ---------------- fault plane determinism ---------------- *)

let test_fault_draws_deterministic () =
  let f1 = Fault.create (cfg_armed ~seed:42) in
  let f2 = Fault.create (cfg_armed ~seed:42) in
  for seq = 0 to 199 do
    let o1 = Fault.noc_outcome f1 ~src:0 ~dst:1 ~seq ~attempt:1 in
    let o2 = Fault.noc_outcome f2 ~src:0 ~dst:1 ~seq ~attempt:1 in
    Alcotest.(check bool) "same outcome for same site" true (o1 = o2)
  done;
  let f3 = Fault.create (cfg_armed ~seed:43) in
  let differs = ref false in
  for seq = 0 to 199 do
    let o1 = Fault.noc_outcome f1 ~src:0 ~dst:1 ~seq ~attempt:1 in
    let o3 = Fault.noc_outcome f3 ~src:0 ~dst:1 ~seq ~attempt:1 in
    if o1 <> o3 then differs := true
  done;
  Alcotest.(check bool) "different seed draws differently" true !differs

(* ---------------- NoC: drain covers retransmissions ---------------- *)

(* A lossy-link config with only NoC drops armed, so the assertions
   below isolate the retransmission path. *)
let drops_only ~seed ~prob =
  { (cfg_armed ~seed) with
    Config.noc_drop_prob = prob;
    noc_corrupt_prob = 0.0;
    noc_delay_prob = 0.0;
    sdram_error_prob = 0.0;
    tile_stall_prob = 0.0;
  }

let test_drain_includes_retries () =
  (* under a lossy link, writes take several attempts; [noc_drain] must
     still block until the payload actually landed *)
  let cfg = drops_only ~seed:7 ~prob:0.4 in
  let m = Machine.create cfg in
  let dst_addr = Machine.local_addr m ~tile:1 ~off:64 in
  Machine.spawn m ~core:0 (fun () ->
      for i = 0 to 31 do
        Machine.store_u32 m ~shared:true
          (Machine.local_addr m ~tile:1 ~off:(64 + (4 * i)))
          (Int32.of_int (1000 + i))
      done;
      Machine.noc_drain m;
      (* after the drain returned, every write must be visible at the
         destination despite the drops along the way *)
      for i = 0 to 31 do
        Alcotest.(check int32)
          (Printf.sprintf "word %d landed despite drops" i)
          (Int32.of_int (1000 + i))
          (Machine.peek_u32 m (dst_addr + (4 * i)))
      done);
  Machine.run m;
  let f = Fault.counts (Machine.fault m) in
  Alcotest.(check bool) "faults were injected" true (count f "noc_drops" > 0);
  Alcotest.(check bool) "retries happened" true (count f "noc_retries" > 0)

let test_outstanding_includes_retries () =
  (* the raw transport: [outstanding] must stay non-zero while a dropped
     packet is being retransmitted, and [drain_wait] must be able to ride
     out the retries *)
  let cfg = drops_only ~seed:5 ~prob:0.5 in
  let engine = Engine.create cfg in
  let fault = Fault.create cfg in
  let locals =
    Array.init cfg.Config.cores (fun _ ->
        Mem.create cfg.Config.local_mem_bytes)
  in
  let noc = Noc.create cfg fault engine locals in
  let payload = Mem.create 8 in
  for i = 0 to 7 do
    Mem.set_char payload i 'q'
  done;
  let polls = ref 0 in
  Engine.spawn engine ~core:0 (fun () ->
      for i = 0 to 15 do
        ignore
          (Noc.post_write noc ~src:0 ~dst:1 ~off:(8 * i) payload ~pos:0
             ~len:8)
      done;
      Alcotest.(check bool) "posted writes are outstanding" true
        (Noc.outstanding noc ~src:0 > 0);
      while Noc.outstanding noc ~src:0 > 0 && !polls < 10_000 do
        incr polls;
        Engine.consume engine Stats.Write_stall
          (max 1 (Noc.drain_wait noc ~src:0))
      done);
  Engine.run engine;
  let f = Fault.counts fault in
  Alcotest.(check bool) "drops happened" true (count f "noc_drops" > 0);
  Alcotest.(check bool) "retries happened" true (count f "noc_retries" > 0);
  Alcotest.(check int) "drain completed" 0 (Noc.outstanding noc ~src:0);
  (* every payload byte landed exactly as sent *)
  for i = 0 to 15 do
    Alcotest.(check string)
      (Printf.sprintf "packet %d intact" i)
      "qqqqqqqq"
      (Bytes.to_string (Mem.to_bytes locals.(1) ~pos:(8 * i) ~len:8))
  done

let test_corruption_never_lands_silently () =
  (* a corrupted packet is dropped by its checksum and retried: the data
     that finally lands is always the data that was sent *)
  let cfg =
    { (cfg_armed ~seed:13) with
      Config.noc_drop_prob = 0.0;
      noc_corrupt_prob = 0.4;
      noc_delay_prob = 0.0;
      sdram_error_prob = 0.0;
      tile_stall_prob = 0.0;
    }
  in
  let m = Machine.create cfg in
  let dst_addr = Machine.local_addr m ~tile:1 ~off:128 in
  Machine.spawn m ~core:0 (fun () ->
      for i = 0 to 31 do
        Machine.store_u32 m ~shared:true
          (dst_addr + (4 * i))
          (Int32.of_int (7 * i))
      done;
      Machine.noc_drain m;
      for i = 0 to 31 do
        Alcotest.(check int32)
          (Printf.sprintf "word %d intact" i)
          (Int32.of_int (7 * i))
          (Machine.peek_u32 m (dst_addr + (4 * i)))
      done);
  Machine.run m;
  let f = Fault.counts (Machine.fault m) in
  Alcotest.(check bool) "corruptions were injected" true
    (count f "noc_corrupts" > 0)

let test_dead_link_relays () =
  (* with a certainly-lossy link, the retry budget exhausts, the link is
     declared dead, and delivery degrades to the SDRAM relay — the write
     still lands *)
  let cfg = drops_only ~seed:1 ~prob:1.0 in
  let m = Machine.create cfg in
  let dst_addr = Machine.local_addr m ~tile:2 ~off:32 in
  Machine.spawn m ~core:0 (fun () ->
      Machine.store_u32 m ~shared:true dst_addr 77l;
      Machine.noc_drain m;
      Alcotest.(check int32) "payload landed via relay" 77l
        (Machine.peek_u32 m dst_addr));
  Machine.run m;
  let f = Fault.counts (Machine.fault m) in
  Alcotest.(check bool) "link declared dead" true (count f "links_dead" > 0);
  Alcotest.(check bool) "relay delivered" true (count f "relay_deliveries" > 0);
  Alcotest.(check bool) "dead link visible" true
    (Machine.link_dead m ~src:0 ~dst:2)

(* ---------------- bounded lock acquisition ---------------- *)

let test_acquire_timeout_returns () =
  let m = Machine.create { Config.small with cores = 4 } in
  let l = Pmc_lock.Dlock.create m in
  let outcome = ref Pmc_lock.Dlock.Acquired in
  Machine.spawn m ~core:0 (fun () ->
      Pmc_lock.Dlock.acquire l;
      Engine.consume (Machine.engine m) Stats.Busy 5_000;
      Pmc_lock.Dlock.release l);
  Machine.spawn m ~core:1 (fun () ->
      Engine.consume (Machine.engine m) Stats.Busy 10;
      outcome := Pmc_lock.Dlock.acquire_timeout l ~timeout:500);
  Machine.run m;
  (match !outcome with
  | Pmc_lock.Dlock.Timeout { waited } ->
      Alcotest.(check bool)
        (Printf.sprintf "waited (%d) within bound" waited)
        true
        (waited >= 400 && waited <= 1_000)
  | Pmc_lock.Dlock.Acquired -> Alcotest.fail "expected a timeout");
  Alcotest.(check bool) "holder released in the end" true
    (Pmc_lock.Dlock.holder l = None)

let test_timeout_leaves_lock_usable () =
  (* after core 1 gives up, core 2 (queued behind it) must still get the
     lock: the withdrawal may not wedge the grant chain *)
  let m = Machine.create { Config.small with cores = 4 } in
  let l = Pmc_lock.Dlock.create m in
  let got2 = ref false in
  Machine.spawn m ~core:0 (fun () ->
      Pmc_lock.Dlock.acquire l;
      Engine.consume (Machine.engine m) Stats.Busy 4_000;
      Pmc_lock.Dlock.release l);
  Machine.spawn m ~core:1 (fun () ->
      Engine.consume (Machine.engine m) Stats.Busy 10;
      ignore (Pmc_lock.Dlock.acquire_timeout l ~timeout:300));
  Machine.spawn m ~core:2 (fun () ->
      Engine.consume (Machine.engine m) Stats.Busy 20;
      Pmc_lock.Dlock.acquire l;
      got2 := true;
      Pmc_lock.Dlock.release l);
  Machine.run m;
  Alcotest.(check bool) "queued waiter still served" true !got2;
  Alcotest.(check bool) "lock free at the end" true
    (Pmc_lock.Dlock.holder l = None)

let test_acquire_timeout_uncontended () =
  let m = Machine.create { Config.small with cores = 2 } in
  let l = Pmc_lock.Dlock.create m in
  let outcome = ref (Pmc_lock.Dlock.Timeout { waited = -1 }) in
  Machine.spawn m ~core:0 (fun () ->
      outcome := Pmc_lock.Dlock.acquire_timeout l ~timeout:100;
      match !outcome with
      | Pmc_lock.Dlock.Acquired -> Pmc_lock.Dlock.release l
      | Pmc_lock.Dlock.Timeout _ -> ());
  Machine.run m;
  Alcotest.(check bool) "uncontended bounded acquire succeeds" true
    (!outcome = Pmc_lock.Dlock.Acquired)

let test_acquire_timeout_invalid () =
  let m = Machine.create { Config.small with cores = 2 } in
  let l = Pmc_lock.Dlock.create m in
  Alcotest.check_raises "timeout must be positive"
    (Invalid_argument "Dlock.acquire_timeout: timeout <= 0") (fun () ->
      ignore (Pmc_lock.Dlock.acquire_timeout l ~timeout:0))

(* ---------------- typed errors ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let test_arena_exhaustion_reports_sizes () =
  let m = Machine.create { Config.small with cores = 2 } in
  let huge = 2 * (Machine.config m).Config.sdram_bytes in
  (match Machine.alloc_cached m ~bytes:huge with
  | _ -> Alcotest.fail "expected arena exhaustion"
  | exception Pmc_error.Error c ->
      Alcotest.(check string) "operation attributed" "Machine.alloc_cached"
        c.Pmc_error.op;
      Alcotest.(check bool) "requested bytes in message" true
        (contains c.Pmc_error.detail "requested");
      Alcotest.(check bool) "available bytes in message" true
        (contains c.Pmc_error.detail "available"));
  (* the failed allocation must not have moved the brk: a small one
     still succeeds *)
  match Machine.alloc_cached m ~bytes:64 with
  | _ -> ()
  | exception _ -> Alcotest.fail "arena corrupted by failed allocation"

let test_lock_errors_typed () =
  let m = Machine.create { Config.small with cores = 2 } in
  let l = Pmc_lock.Dlock.create m in
  let releases_typed = ref false in
  Machine.spawn m ~core:0 (fun () ->
      (try Pmc_lock.Dlock.release l
       with Pmc_error.Error c -> releases_typed := c.Pmc_error.core = 0));
  Machine.run m;
  Alcotest.(check bool) "release-not-held carries the core" true
    !releases_typed

(* ---------------- the wall of seeds ---------------- *)

let run_seed ~backend ~seed =
  let app =
    match Pmc_apps.Registry.find "histogram" with
    | Some a -> a
    | None -> Alcotest.fail "histogram app missing"
  in
  Pmc_apps.Chaos.run_one ~model_check:false app ~backend ~cores:4 ~scale:6
    ~seed

let prop_seeded_runs_acceptable =
  QCheck.Test.make ~count:25 ~name:"chaos runs complete or fail typed"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = run_seed ~backend:Pmc.Backends.Dsm ~seed in
      Pmc_apps.Chaos.acceptable r.Pmc_apps.Chaos.verdict)

let prop_seeded_runs_acceptable_farmem =
  QCheck.Test.make ~count:25
    ~name:"chaos runs complete or fail typed (farmem)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = run_seed ~backend:Pmc.Backends.Farmem ~seed in
      Pmc_apps.Chaos.acceptable r.Pmc_apps.Chaos.verdict)

(* the disarmed power-cut plane: [Config.no_faults] on a crash config
   must reproduce the fault-free run bit for bit — the [farmem] twin of
   the zero-cost-when-off identity *)
let prop_disarmed_power_cut_identical =
  QCheck.Test.make ~count:10 ~name:"disarmed power-cut plane is free"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let app =
        match Pmc_apps.Registry.find "histogram" with
        | Some a -> a
        | None -> Alcotest.fail "histogram app missing"
      in
      let base = { Config.small with Config.cores = 4 } in
      let backend = Pmc.Backends.Farmem in
      let plain = Pmc_apps.Runner.run ~cfg:base app ~backend ~scale:6 in
      let disarmed =
        Pmc_apps.Runner.run
          ~cfg:(Config.no_faults (Config.crash ~seed ~window:10_000 base))
          app ~backend ~scale:6
      in
      plain.Pmc_apps.Runner.wall = disarmed.Pmc_apps.Runner.wall
      && plain.Pmc_apps.Runner.checksum = disarmed.Pmc_apps.Runner.checksum
      && plain.Pmc_apps.Runner.summary = disarmed.Pmc_apps.Runner.summary)

let prop_seeded_runs_deterministic =
  QCheck.Test.make ~count:10 ~name:"chaos verdicts reproducible"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r1 = run_seed ~backend:Pmc.Backends.Dsm ~seed in
      let r2 = run_seed ~backend:Pmc.Backends.Dsm ~seed in
      r1.Pmc_apps.Chaos.verdict = r2.Pmc_apps.Chaos.verdict
      && r1.Pmc_apps.Chaos.wall = r2.Pmc_apps.Chaos.wall
      && r1.Pmc_apps.Chaos.faults = r2.Pmc_apps.Chaos.faults)

(* a complete soak, with the model replay on, at a geometry small enough
   for the checker *)
let test_soak_with_replay () =
  let apps =
    List.filter_map Pmc_apps.Registry.find [ "histogram"; "reduce" ]
  in
  let s =
    Soak_oracle.soak ~apps ~backend:Pmc.Backends.Dsm ~cores:4 ~scale:4
      ~seeds:[ 1; 2; 3; 4; 5 ] ()
  in
  Alcotest.(check int) "ten runs" 10 s.Pmc_apps.Chaos.total;
  Alcotest.(check int) "no silent failures" 0 s.Pmc_apps.Chaos.failed;
  Alcotest.(check bool) "soak passes" true (Pmc_apps.Chaos.ok s)

let suite =
  ( "chaos",
    [
      Alcotest.test_case "disarmed chaos is bit-identical" `Slow
        test_disarmed_is_identical;
      Alcotest.test_case "no_faults clears the knobs" `Quick
        test_no_faults_clears_knobs;
      Alcotest.test_case "fault draws deterministic" `Quick
        test_fault_draws_deterministic;
      Alcotest.test_case "drain covers retransmissions" `Quick
        test_drain_includes_retries;
      Alcotest.test_case "corruption never lands silently" `Quick
        test_corruption_never_lands_silently;
      Alcotest.test_case "dead link degrades to relay" `Quick
        test_dead_link_relays;
      Alcotest.test_case "acquire_timeout times out" `Quick
        test_acquire_timeout_returns;
      Alcotest.test_case "timeout leaves lock usable" `Quick
        test_timeout_leaves_lock_usable;
      Alcotest.test_case "acquire_timeout uncontended" `Quick
        test_acquire_timeout_uncontended;
      Alcotest.test_case "acquire_timeout validates input" `Quick
        test_acquire_timeout_invalid;
      Alcotest.test_case "arena exhaustion reports sizes" `Quick
        test_arena_exhaustion_reports_sizes;
      Alcotest.test_case "lock errors carry the core" `Quick
        test_lock_errors_typed;
      QCheck_alcotest.to_alcotest prop_seeded_runs_acceptable;
      QCheck_alcotest.to_alcotest prop_seeded_runs_acceptable_farmem;
      QCheck_alcotest.to_alcotest prop_disarmed_power_cut_identical;
      QCheck_alcotest.to_alcotest prop_seeded_runs_deterministic;
      Alcotest.test_case "soak with model replay" `Slow test_soak_with_replay;
    ] )
