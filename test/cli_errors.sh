#!/bin/sh
# Run each binary with one bad flag value — an unknown app, back-end or
# fabric name, or a count below its minimum — and print the command, its
# stderr and its exit code.  Every case must exit 2 (input error) with
# cmdliner's message format; cli_errors.expected pins the lot.
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

run pmc_demo --app nope
run pmc_demo --cores 0
run pmc_demo --topology mesh:3x3
run pmc_trace dump --backend nope
run pmc_trace dump --scale 0
run pmc_bench run --suite nope
run pmc_bench run --app nope
run pmc_bench run --cores 0
run pmc_bench run --repeat 0
run pmc_chaos run --backend nope
run pmc_chaos soak --topology torus:3x3
run pmc_chaos crash --cores 0
run pmc_serve submit bench --app nope --local
run pmc_serve submit crash --window 0 --local
run pmc_serve daemon --jobs=-1
run litmus_run --jobs=-1
run pmc_check --jobs=-1
