#!/usr/bin/env python3
"""Builds and runs the workspace benchmark (see perfbench/METRICS.md).

Run from the repository root:

    python3 perfbench/run.py --workload grid-batch --seed 1 --seconds 10 --trace 0

Workloads: grid-batch, random-batch, serve-mixed. The script builds the
`af-serve` daemon and the benchmark binary from source (release profile,
offline) into $CARGO_TARGET_DIR (default .bench_build), runs the
workload, and passes its output through. The last stdout line is the
JSON result. Exit code 0 means every answer was correct.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("grid-batch", "random-batch", "serve-mixed")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail(f"unknown argument {flag}")
        value = next(it, None)
        if value is None:
            fail(f"{flag} needs a value")
        args[flag] = value
    if args["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return args


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
            for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "af-serve", "--bin", "af-serve"],
        ["cargo", "build", "--release", "--offline", "--locked", "--manifest-path",
         os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    args = parse_args(sys.argv[1:])
    for needed in ("Cargo.toml", "Cargo.lock", "crates/core", "crates/serve"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a full checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args["--workload"],
        "--seed", args["--seed"],
        "--seconds", args["--seconds"],
        "--trace", args["--trace"],
        "--serve-bin", os.path.join(target, "release", "af-serve"),
        "--out-dir", os.path.join(target, "perfbench-spans"),
        "--rev", source_rev(),
    ]
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
