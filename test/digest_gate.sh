#!/bin/sh
# Rewrite one verdict digest (the first nonzero lat_digest: a check
# case's) in a copy of a report, once up and once down by one, and
# print the exit code of `pmc_bench compare REPORT COPY` for each: a
# digest has no direction, so both must fail the gate (exit 1).
#
#   sh digest_gate.sh BIN/pmc_bench.exe BENCH_BASELINE.json
set -u
for d in 1 -1; do
  awk -v d="$d" '
    !done && /"lat_digest": [1-9]/ {
      sub(/[0-9]+/, sprintf("%.0f", $2 + d)); done = 1
    }
    { print }' "$2" > digest_gate.json
  "$1" compare "$2" digest_gate.json > /dev/null
  echo "digest $d: exit $?"
done
