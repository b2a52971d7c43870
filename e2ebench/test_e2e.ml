(* The benchmark's own tests: the tail-percentile rule, failure
   accounting, the metric catalogue against BENCHMARK.json, and that two
   runs of every workload's unit produce the same fingerprint.

   Usage: test_e2e.exe PMC_SERVE_EXE *)

open E2e

let tail_permille () =
  let check n want expect =
    Alcotest.(check (option int))
      (Printf.sprintf "n=%d want=%d" n want)
      expect
      (Tally.tail_permille ~n ~want)
  in
  check 1000 950 (Some 950);
  check 200 950 (Some 950);
  (* p95 of 199 leaves 9 beyond; p94.9 leaves 10 *)
  check 199 950 (Some 949);
  check 100 950 (Some 900);
  check 11 950 (Some 90);
  check 10 950 None;
  check 0 950 None

let tail_value () =
  let xs = Array.init 100 (fun i -> float (100 - i)) in
  Alcotest.(check (pair int (float 0.)))
    "p90 of 1..100" (900, 90.) (Tally.tail xs ~want:950);
  Alcotest.(check (pair int (float 0.)))
    "too few samples: median" (500, 3.)
    (Tally.tail [| 5.; 1.; 3.; 4.; 2. |] ~want:950);
  Alcotest.(check (float 0.)) "even median" 2.5
    (Tally.median [| 4.; 1.; 3.; 2. |])

let failure_accounting () =
  let t = Tally.create () in
  Tally.check t ~what:"ok" true;
  Tally.check t ~what:"wrong checksum" false;
  Alcotest.(check (option int)) "guard returns" (Some 3)
    (Tally.guard t ~what:"fine" (fun () -> 3));
  Alcotest.(check (option int)) "guard catches" None
    (Tally.guard t ~what:"boom" (fun () -> failwith "x"));
  Alcotest.(check int) "attempted" 3 t.attempted;
  Alcotest.(check int) "failed" 2 t.failed;
  Alcotest.(check (float 1e-12)) "fail_frac" (2. /. 3.) (Tally.fail_frac t);
  Alcotest.(check (list string)) "reasons, oldest first"
    [ "wrong checksum"; "boom: Failure(\"x\")" ]
    (List.rev t.reasons);
  Alcotest.(check (float 0.)) "nothing attempted" 0.
    (Tally.fail_frac (Tally.create ()))

let catalogue () =
  let json =
    Pmc_bench.Json.parse
      (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
  in
  let names key =
    Option.get (Pmc_bench.Json.get_list key json)
    |> List.map (fun m ->
           ( Option.get (Pmc_bench.Json.get_str "name" m),
             Option.get (Pmc_bench.Json.get_str "unit" m) ))
  in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Metrics.end_to_end (names "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" Metrics.per_layer (names "per_layer");
  Alcotest.(check (list string)) "workloads" Workloads.names
    (Option.get (Pmc_bench.Json.get_list "workloads" json)
    |> List.map (fun w -> Option.get (Pmc_bench.Json.get_str "name" w)))

let serve_exe = ref ""

let repeatable name () =
  let tally = Tally.create () in
  let ctx =
    { Workloads.tally; seed = 7; serve_exe = !serve_exe; root = "..";
      work_dir = "." }
  in
  let p = Workloads.prepare ctx name Workloads.Mini in
  let a = p.run_unit () and b = p.run_unit () in
  Alcotest.(check string) "fingerprint" a.fingerprint b.fingerprint;
  Alcotest.(check int) "sim_cycles" a.sim_cycles b.sim_cycles;
  Alcotest.(check bool) "simulated something" true (a.sim_cycles > 0);
  Alcotest.(check (list string)) "no failures" [] tally.reasons

let () =
  serve_exe := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "e2ebench"
    [ ( "rules",
        [ Alcotest.test_case "tail permille" `Quick tail_permille;
          Alcotest.test_case "tail value" `Quick tail_value;
          Alcotest.test_case "failure accounting" `Quick failure_accounting;
          Alcotest.test_case "catalogue = BENCHMARK.json" `Quick catalogue ] );
      ( "fingerprint",
        List.map
          (fun w -> Alcotest.test_case w `Quick (repeatable w))
          Workloads.names ) ]
