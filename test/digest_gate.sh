#!/bin/sh
# Rewrite one latency digest in a copy of a report, once up and once
# down by one, and print the exit code of `pmc_bench compare REPORT
# COPY` for each: a digest has no direction, so every rewrite must fail
# the gate (exit 1).  Two digests are rewritten in turn, each picked by
# its sample's "work": the first nonzero one of a simulator case
# (served traffic, work "sim") and the first of a check case (work
# "check_*").
#
#   sh digest_gate.sh BIN/pmc_bench.exe BENCH_BASELINE.json
set -u
for work in sim check; do
  for d in 1 -1; do
    awk -v w="$work" -v d="$d" '
      /"work": / { split($2, q, "\""); kind = q[2] }
      !done && index(kind, w) == 1 && /"lat_digest": [1-9]/ {
        sub(/[0-9]+/, sprintf("%.0f", $2 + d)); done = 1
      }
      { print }' "$2" > digest_gate.json
    "$1" compare "$2" digest_gate.json > /dev/null
    echo "$work digest $d: exit $?"
  done
done
