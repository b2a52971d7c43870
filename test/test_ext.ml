(* Tests of the extensions beyond the paper's core: byte-granularity
   accesses, the barrier, the Graphviz exporter, the additional litmus
   programs, and failure injection (a deliberately broken SWCC back-end
   must be caught by the checksums — the coherence protocol is
   load-bearing). *)

open Pmc_sim
open Pmc_model

let cfg = { Config.small with cores = 4 }

(* ---------------- byte accesses ---------------- *)

let test_byte_roundtrip_all_backends () =
  List.iter
    (fun kind ->
      let m = Machine.create cfg in
      let api = Pmc.Backends.create kind m in
      let o = Pmc.Api.alloc api ~name:"o" ~bytes:16 in
      let ok = ref false in
      Machine.spawn m ~core:0 (fun () ->
          Pmc.Api.with_x api o (fun () ->
              for i = 0 to 15 do
                Pmc.Api.set8 api o i ((i * 17) land 0xff)
              done;
              ok :=
                List.for_all
                  (fun i -> Pmc.Api.get8 api o i = (i * 17) land 0xff)
                  (List.init 16 Fun.id)));
      Machine.run m;
      Alcotest.(check bool)
        (Pmc.Backends.to_string kind ^ ": byte round-trip")
        true !ok)
    Pmc.Backends.all

let test_bytes_and_words_alias () =
  let m = Machine.create cfg in
  let api = Pmc.Backends.create Pmc.Backends.Swcc m in
  let o = Pmc.Api.alloc api ~name:"o" ~bytes:8 in
  let word = ref 0l in
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Api.with_x api o (fun () ->
          Pmc.Api.set8 api o 0 0x44;
          Pmc.Api.set8 api o 1 0x33;
          Pmc.Api.set8 api o 2 0x22;
          Pmc.Api.set8 api o 3 0x11;
          word := Pmc.Api.get api o 0));
  Machine.run m;
  Alcotest.(check int32) "bytes compose little-endian words" 0x11223344l
    !word

let test_byte_bounds () =
  let m = Machine.create cfg in
  let api = Pmc.Backends.create Pmc.Backends.Seqcst m in
  let o = Pmc.Api.alloc api ~name:"o" ~bytes:5 in
  let raised = ref false in
  Machine.spawn m ~core:0 (fun () ->
      Pmc.Api.with_x api o (fun () ->
          try Pmc.Api.set8 api o 5 1
          with Pmc.Api.Discipline_error _ -> raised := true));
  Machine.run m;
  Alcotest.(check bool) "byte bounds checked" true !raised

(* single-byte objects are atomic for entry_ro on every back-end *)
let test_byte_object_entry_ro_free () =
  let m = Machine.create cfg in
  let api = Pmc.Backends.create Pmc.Backends.Swcc m in
  let o = Pmc.Api.alloc api ~name:"b" ~bytes:1 in
  Alcotest.(check bool) "1-byte object is atomic-sized" true
    (Pmc.Shared.is_atomic_sized o);
  ignore api

(* ---------------- barrier ---------------- *)

let test_barrier_all_backends () =
  List.iter
    (fun kind ->
      let m = Machine.create { Config.default with cores = 8 } in
      let api = Pmc.Backends.create kind m in
      let barrier = Pmc.Barrier.create api ~name:"bar" ~parties:8 in
      let phase = Array.make 8 0 in
      let violations = ref 0 in
      for c = 0 to 7 do
        Machine.spawn m ~core:c (fun () ->
            for p = 1 to 3 do
              (* unequal work before the barrier *)
              Machine.busy m ((c * 37) + (p * 11));
              phase.(c) <- p;
              Pmc.Barrier.wait barrier;
              (* after the barrier everyone must have reached phase p *)
              Array.iter (fun q -> if q < p then incr violations) phase
            done)
      done;
      Machine.run m;
      Alcotest.(check int)
        (Pmc.Backends.to_string kind ^ ": no one passes early")
        0 !violations)
    Pmc.Backends.all

(* ---------------- dot exporter ---------------- *)

let test_dot_export () =
  let e = Execution.create ~procs:2 ~locs:1 () in
  ignore (Execution.acquire e ~proc:0 ~loc:0);
  ignore (Execution.write e ~proc:0 ~loc:0 ~value:1);
  ignore (Execution.release e ~proc:0 ~loc:0);
  ignore (Execution.acquire e ~proc:1 ~loc:0);
  let dot = Dot.of_execution e in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sync edge present" true (contains "<S");
  Alcotest.(check bool) "process clusters" true (contains "cluster_p0");
  Alcotest.(check bool) "node for the write" true (contains "v0:=1")

(* ---------------- additional litmus programs ---------------- *)

let test_iriw () =
  (* the mixed outcome: observers disagree on the write order *)
  let mixed = "0,0 | 0,0 | 1,0 | 1,0" in
  let r_sc = Litmus.enumerate (module Models.Sc) Lprog.iriw in
  let r_pc = Litmus.enumerate (module Models.Pc) Lprog.iriw in
  let r_cc = Litmus.enumerate (module Models.Cc) Lprog.iriw in
  Alcotest.(check bool) "SC forbids IRIW" false (Litmus.allows r_sc mixed);
  Alcotest.(check bool) "TSO-PC forbids IRIW" false
    (Litmus.allows r_pc mixed);
  Alcotest.(check bool) "CC allows IRIW (per-location order only)" true
    (Litmus.allows r_cc mixed)

let test_wrc () =
  (* causality: under SC the final read must see 1; weak models may not *)
  let r_sc = Litmus.enumerate (module Models.Sc) Lprog.wrc in
  Alcotest.(check (slist string String.compare)) "SC: causal"
    [ "0,0 | 0,0 | 1,0" ]
    (Litmus.outcomes_list r_sc);
  let r_slow = Litmus.enumerate (module Models.Slow) Lprog.wrc in
  Alcotest.(check bool) "Slow breaks causality" true
    (Litmus.allows r_slow "0,0 | 0,0 | 0,0")

let test_lb () =
  (* no model here speculates: (1,1) is never produced *)
  List.iter
    (fun m ->
      let r = Litmus.enumerate m Lprog.lb in
      Alcotest.(check bool) "LB (1,1) forbidden" false
        (Litmus.allows r "1 | 1"))
    Models.all

(* ---------------- failure injection ---------------- *)

(* SWCC with the exit_x write-back removed: modifications die in the
   cache.  The multi-core exchange must produce a wrong result — proving
   the protocol (and the checksum tests) are load-bearing. *)
module Broken_swcc = struct
  type t = Pmc.Swcc.t

  let name = "swcc-no-writeback"
  let create = Pmc.Swcc.create
  let machine = Pmc.Swcc.machine
  let alloc = Pmc.Swcc.alloc
  let entry_x = Pmc.Swcc.entry_x

  (* BUG: skip the write-back; just drop the lines and unlock *)
  let exit_x t (o : Pmc.Shared.t) =
    Machine.inval_range (Pmc.Swcc.machine t) ~addr:o.Pmc.Shared.sdram_addr
      ~len:o.Pmc.Shared.size;
    Pmc_lock.Dlock.release o.Pmc.Shared.lock

  let entry_ro = Pmc.Swcc.entry_ro
  let exit_ro = Pmc.Swcc.exit_ro
  let fence = Pmc.Swcc.fence
  let flush = Pmc.Swcc.flush
  let read_u32_int = Pmc.Swcc.read_u32_int
  let write_u32_int = Pmc.Swcc.write_u32_int
  let read_u8 = Pmc.Swcc.read_u8
  let write_u8 = Pmc.Swcc.write_u8
  let peek_u32 = Pmc.Swcc.peek_u32
  let poke_u32 = Pmc.Swcc.poke_u32
end

let test_broken_swcc_detected () =
  let m = Machine.create cfg in
  let api =
    Pmc.Api.of_backend (module Broken_swcc) (Broken_swcc.create m)
  in
  let counter = Pmc.Api.alloc_words api ~name:"ctr" ~words:1 in
  for c = 0 to 3 do
    Machine.spawn m ~core:c (fun () ->
        for _ = 1 to 8 do
          Pmc.Api.with_x api counter (fun () ->
              let v = Pmc.Api.get_int api counter 0 in
              Pmc.Api.set_int api counter 0 (v + 1))
        done)
  done;
  Machine.run m;
  Alcotest.(check bool)
    "without write-back the counter misses updates" true
    (Pmc.Api.peek_int api counter 0 < 32)

(* And the same program on the real SWCC is exact — side-by-side. *)
let test_real_swcc_exact () =
  let m = Machine.create cfg in
  let api = Pmc.Backends.create Pmc.Backends.Swcc m in
  let counter = Pmc.Api.alloc_words api ~name:"ctr" ~words:1 in
  for c = 0 to 3 do
    Machine.spawn m ~core:c (fun () ->
        for _ = 1 to 8 do
          Pmc.Api.with_x api counter (fun () ->
              let v = Pmc.Api.get_int api counter 0 in
              Pmc.Api.set_int api counter 0 (v + 1))
        done)
  done;
  Machine.run m;
  Alcotest.(check int) "with the protocol the counter is exact" 32
    (Pmc.Api.peek_int api counter 0)

(* DSM without the version pull on acquire: the new owner reads its stale
   replica. *)
module Broken_dsm = struct
  type t = Pmc.Dsm.t

  let name = "dsm-no-pull"
  let create = Pmc.Dsm.create
  let machine = Pmc.Dsm.machine
  let alloc = Pmc.Dsm.alloc

  (* BUG: acquire without pulling the newest version *)
  let entry_x _t (o : Pmc.Shared.t) = Pmc_lock.Dlock.acquire o.Pmc.Shared.lock

  let exit_x = Pmc.Dsm.exit_x
  let entry_ro = Pmc.Dsm.entry_ro
  let exit_ro = Pmc.Dsm.exit_ro
  let fence = Pmc.Dsm.fence
  let flush = Pmc.Dsm.flush
  let read_u32_int = Pmc.Dsm.read_u32_int
  let write_u32_int = Pmc.Dsm.write_u32_int
  let read_u8 = Pmc.Dsm.read_u8
  let write_u8 = Pmc.Dsm.write_u8
  let peek_u32 = Pmc.Dsm.peek_u32
  let poke_u32 = Pmc.Dsm.poke_u32
end

let test_broken_dsm_detected () =
  let m = Machine.create cfg in
  let api = Pmc.Api.of_backend (module Broken_dsm) (Broken_dsm.create m) in
  let counter = Pmc.Api.alloc_words api ~name:"ctr" ~words:1 in
  for c = 0 to 3 do
    Machine.spawn m ~core:c (fun () ->
        for _ = 1 to 8 do
          Pmc.Api.with_x api counter (fun () ->
              let v = Pmc.Api.get_int api counter 0 in
              Pmc.Api.set_int api counter 0 (v + 1))
        done)
  done;
  Machine.run m;
  (* each core only ever increments its own stale replica *)
  Alcotest.(check bool) "without the pull, updates are lost" true
    (Pmc.Api.peek_int api counter 0 < 32)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "byte round-trip (all back-ends)" `Quick
        test_byte_roundtrip_all_backends;
      Alcotest.test_case "bytes alias words" `Quick
        test_bytes_and_words_alias;
      Alcotest.test_case "byte bounds" `Quick test_byte_bounds;
      Alcotest.test_case "1-byte objects are atomic" `Quick
        test_byte_object_entry_ro_free;
      Alcotest.test_case "barrier (all back-ends)" `Slow
        test_barrier_all_backends;
      Alcotest.test_case "dot export" `Quick test_dot_export;
      Alcotest.test_case "IRIW separates TSO from CC" `Quick test_iriw;
      Alcotest.test_case "WRC causality" `Quick test_wrc;
      Alcotest.test_case "LB never speculates" `Quick test_lb;
      Alcotest.test_case "fault: SWCC without write-back fails" `Quick
        test_broken_swcc_detected;
      Alcotest.test_case "real SWCC is exact" `Quick test_real_swcc_exact;
      Alcotest.test_case "fault: DSM without version pull fails" `Quick
        test_broken_dsm_detected;
    ] )
