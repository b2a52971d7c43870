#!/bin/sh
# Render --help=plain for each binary given and, recursively, for every
# subcommand its COMMANDS section lists.  Cmdliner reports a flag name
# declared twice in one command only when that command is evaluated, so
# this walk is what catches a clash between composed shared terms.
#
#   sh help_smoke.sh EXE...
set -eu

walk() {
  exe=$1
  shift
  if ! page=$("$exe" "$@" --help=plain); then
    echo "$(basename "$exe") $* --help=plain failed" >&2
    exit 1
  fi
  for sub in $(printf '%s\n' "$page" |
    sed -n '/^COMMANDS$/,/^[A-Z]/s/^       \([a-z][a-z-]*\) .*/\1/p'); do
    walk "$exe" "$@" "$sub"
  done
}

for exe in "$@"; do
  walk "$exe"
done
