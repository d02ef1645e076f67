#!/usr/bin/env python3
"""Builds the spi-explored daemon and the benchmark harness, then runs one
workload of the daemon benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --regen      # recompute bench/data/reference.txt

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default: .bench_build). Runtime files go to .bench_out. The last line of
standard output is the result as one JSON object; see bench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
DATA = os.path.join(BENCH, "data", "reference.txt")


def fail(message):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when run in a git checkout, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        if found.returncode == 0:
            return found.stdout.strip()
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "shims", "bench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for command in (
        ["cargo", "build", "--release", "--offline", "-p", "spi-explore",
         "--bin", "spi-explored"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ):
        built = subprocess.run(command, cwd=ROOT, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            fail(f"build failed: {' '.join(command)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload",
                        choices=["sweep", "exact", "tenants", "restart"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--regen", action="store_true",
                        help="recompute the pinned reference answers")
    args = parser.parse_args()
    if not args.regen and args.workload is None:
        fail("--workload is required")

    # The benchmark measures the repository's own daemon; without its
    # sources there is nothing to build or run.
    for needed in ("Cargo.toml", os.path.join("crates", "spi-explore", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target)
    harness = os.path.join(target, "release", "spi-daemon-bench")

    if args.regen:
        command = [harness, "regen", "--data", DATA]
    else:
        command = [
            harness, "run",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--daemon", os.path.join(target, "release", "spi-explored"),
            "--data", DATA,
            "--out", os.path.join(ROOT, ".bench_out"),
            "--commit", source_id(),
        ]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
