#!/bin/sh
# Run each binary with one bad flag value — an unknown app, back-end,
# fabric or program name, or a count below its minimum — and print the
# command, its stderr and its exit code.  Every such case must exit 2
# (input error) with one message format; cli_errors.expected pins the
# lot.  A few selections that must be honoured print stdout as well.
#
#   sh cli_errors.sh BIN/pmc_demo.exe   (the other binaries sit beside it)
set -u
bin=$(dirname "$1")

run() {
  exe=$1
  shift
  echo "\$ $exe $*"
  "$bin/$exe.exe" "$@" 2>&1 >/dev/null
  echo "exit $?"
}

run_out() {
  exe=$1
  shift
  echo "\$ $exe $*"
  "$bin/$exe.exe" "$@" 2>&1
  echo "exit $?"
}

run pmc_demo --app nope
run pmc_demo --cores 0
run pmc_demo --topology mesh:3x3
run pmc_trace dump --backend nope
run pmc_trace dump --scale 0
run pmc_bench run --suite nope
run pmc_bench run --app nope
run pmc_bench run --cores 0
run pmc_bench run --repeat 0
run pmc_bench paper nope
run pmc_chaos run --backend nope
run pmc_chaos soak --topology torus:3x3
run pmc_chaos crash --cores 0
run pmc_serve submit bench --app nope --local
run pmc_serve submit crash --window 0 --local
run pmc_serve daemon --jobs=-1
run litmus_run --jobs=-1
run litmus_run --figures -p nope
run litmus_run --dot -p nope
run_out litmus_run --drf -p sb
run pmc_check --jobs=-1
# Every int that lands in a job or a budget is carried exactly only
# below 1e15 in magnitude, and a float only to six significant digits:
# larger ints and longer floats are refused where they enter.
run pmc_chaos run --seed 1234567890123456
run pmc_chaos run --cores 1000000000000000
run pmc_chaos run --intensity 1.23456789
run pmc_chaos soak --seed-base 999999999999999 --seeds 2
run pmc_chaos crash --seeds 999999999999999..1000000000000000
run pmc_serve submit crash --window 1000000000000000 --local
run pmc_serve submit chaos --replay-budget=-1000000000000000 --local
run pmc_serve submit litmus --program sb --max-states 1000000000000000 --local
run pmc_serve submit bench --max-cycles 1000000000000000 --local
run pmc_serve submit litmus --program sb --limit 1000000000000000 --local
run pmc_bench run --cores 1000000000000000
# A fabric whose dimensions overflow is refused, not wrapped to a fit;
# a negative count in a .pmc program is a syntax error naming its line.
run pmc_demo --cores 4 --topology mesh:2305843009213693953x4
printf 'program p\nobj o 4\nthread\nloop -1\nread o\nend\n' > neg_count.pmc
run pmc_check --file neg_count.pmc
rm -f neg_count.pmc
