#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload tpch_t1 --seed 1 --seconds 10 --trace 0

Every argument is passed to perfbench/bench.exe (see README.md here).
The build uses the repository's own dune project, so outside a full
checkout it fails, and this script exits non-zero without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    # keep every build product inside the checkout (no shared dune cache)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
