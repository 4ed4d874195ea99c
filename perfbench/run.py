#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/bench.exe and the job
server with dune (inside the checkout, no shared cache), then runs the
benchmark with the same arguments; its last stdout line is the result
object. Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

TARGETS = ["perfbench/bench.exe", "bin/lookahead_serve.exe"]


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(["_build/default/perfbench/bench.exe"] + sys.argv[1:])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
