#!/usr/bin/env python3
"""Runs one workload of the WARLOCK benchmark.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `warlockd` (from the repository's workspace) and the `perfbench`
binary (this directory's own package) in release mode into
CARGO_TARGET_DIR (default: .bench_build at the repository root), then
runs the workload. The binary prints the full result document on
stderr and the one-line JSON summary as the last line of stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(ROOT, "crates", "core", "Cargo.toml"), "--bin", "warlockd"],
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for build in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *build]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "run",
        *sys.argv[1:],
        "--root",
        HERE,
        "--warlockd",
        os.path.join(release, "warlockd"),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
