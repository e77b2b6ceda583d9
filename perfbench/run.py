#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 32 --trace 0

Every argument is passed to perfbench/workloads.exe (see README.md). The
build and the run keep their files inside the checkout: dune's shared
cache is disabled and TMPDIR points at .bench/tmp. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    missing = [p for p in ("dune-project", "lib", "perfbench/dune") if not os.path.exists(p)]
    if missing:
        print("run.py: not a source checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".bench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/workloads.exe"],
        stdout=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "workloads.exe")
    # Its own process group, so that stopping it also stops the set-up
    # children and shard workers it started: on a timeout, or when this
    # script is itself terminated.
    bench = subprocess.Popen([exe] + sys.argv[1:], env=env, start_new_session=True)

    def stop():
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()

    def on_term(signum, _frame):
        stop()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
