(* Loads a benchmark report with [Report.load] and prints it again with
   [Json.to_string]: the runtest rule diffs the output against the
   committed BENCH_BASELINE.json, so the report codec is pinned on the
   very file the CI gate reads.

     report_reprint.exe BENCH_BASELINE.json *)

let () =
  print_string
    (Pmc_bench.Json.to_string
       (Pmc_bench.Report.to_json (Pmc_bench.Report.load Sys.argv.(1))))
