#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

Usage: scripts/peak_rss.py [--max-mb N] [--label TEXT] -- CMD [ARG ...]

The peak comes from getrusage(RUSAGE_CHILDREN) after the command exits,
so no GNU time is needed.  The command's stdout is discarded; its stderr
passes through.  One line goes to stdout:

    <label> peak_rss_mb=<MB> wall_s=<seconds> exit=<code>

Exits non-zero if the command fails, or if --max-mb is given and the
peak exceeds it.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-mb", type=float, default=None,
                   help="fail if the peak RSS exceeds this many MB")
    p.add_argument("--label", default=None,
                   help="text printed before the figures (default: CMD)")
    p.add_argument("cmd", nargs=argparse.REMAINDER)
    a = p.parse_args()
    cmd = a.cmd[1:] if a.cmd[:1] == ["--"] else a.cmd
    if not cmd:
        p.error("no command given")
    t0 = time.monotonic()
    rc = subprocess.call(cmd, stdout=subprocess.DEVNULL)
    wall = time.monotonic() - t0
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    mb = maxrss / (1024 * 1024) if sys.platform == "darwin" else maxrss / 1024
    label = a.label if a.label is not None else " ".join(cmd)
    print(f"{label} peak_rss_mb={mb:.1f} wall_s={wall:.2f} exit={rc}")
    if rc != 0:
        return rc
    if a.max_mb is not None and mb > a.max_mb:
        print(f"{label}: peak RSS {mb:.1f} MB exceeds {a.max_mb:g} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
