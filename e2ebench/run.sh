#!/bin/sh
# Build the benchmark runner and the pmc_serve daemon from source, then
# run one workload:
#
#   sh e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to stderr, so
# the last line of stdout is the runner's JSON result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/main.ml ]; then
  echo "e2ebench: run from the root of a pmc checkout" >&2
  exit 2
fi

if ! command -v dune >/dev/null 2>&1; then
  for d in "${OPAM_SWITCH_PREFIX:-}/bin" "${OPAMROOT:-$HOME/.opam}"/*/bin; do
    if [ -x "$d/dune" ]; then
      PATH="$d:$PATH"
      break
    fi
  done
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "e2ebench: dune not found" >&2
  exit 2
fi

dune build --root . ./e2ebench/main.exe ./bin/pmc_serve.exe >&2

exec ./_build/default/e2ebench/main.exe \
  --serve-exe ./_build/default/bin/pmc_serve.exe "$@"
