#!/usr/bin/env python3
"""Build and run the certnn benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload maximize --seed 1 --seconds 15 --trace 0

Workloads: maximize, serve. `--trace 1` prints the
per-layer metrics instead of the end-to-end ones. Build output goes to
standard error; the last line of standard output is the JSON result.
The build lands in $CARGO_TARGET_DIR (default .bench_build), run state
(daemon directories, trace files) in .bench_build/perfbench-state.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    for needed in ("Cargo.toml", "crates"):
        if not (ROOT / needed).exists():
            print(f"perfbench: {needed} not found next to perfbench/; "
                  "run from a full checkout of the repository", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    state = ROOT / ".bench_build" / "perfbench-state"
    exe = target / "release" / "certnn-perfbench"
    return subprocess.run([str(exe), *sys.argv[1:], "--state-dir", str(state)], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
