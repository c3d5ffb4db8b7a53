#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload kernels|serve-open|net-closed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml program is built with dune
(quietly, on stderr), then run with the same arguments; its stdout is
passed through unchanged, so the last line is the result object.  A
failed build or a failed correctness check exits non-zero.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench/perfbench.exe"
OUT = os.path.join(ROOT, ".perfbench_out")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def commit() -> str:
    # look no further up than the checkout: a parent repository's
    # commit is not this source's
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at the repository root; nothing to build", file=sys.stderr)
        return 2
    # no shared dune cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    cmd = [exe, *sys.argv[1:], "--out", OUT, "--commit", commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
