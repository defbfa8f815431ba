#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 simbench/run.py --workload media-server --seed 1 --seconds 25 --trace 0

The arguments are passed unchanged to simbench/main.exe, which prints a
human-readable report followed by one JSON result line (see README.md).
The build runs with dune's shared cache disabled, so everything the
benchmark writes stays inside the checkout (_build/ and simbench/out/).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
TARGET = "./simbench/main.exe"


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.exit("simbench: run from the root of a Jord checkout (no dune-project here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"simbench: build failed: {e}")
    if build.returncode != 0:
        sys.exit(f"simbench: build failed with exit code {build.returncode}")
    exe = os.path.join(root, "_build", "default", "simbench", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"simbench: run failed: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
