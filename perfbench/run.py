#!/usr/bin/env python3
"""Builds and runs one ICFL benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `icfl-server` and the benchmark
package in release mode (offline, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the workload; the benchmark's own output,
ending in one JSON result line, passes through unchanged. Scratch files
(registries, state dirs, traces) go under `.bench_build/perfbench`.
"""

import os
import subprocess
import sys

WORKLOADS = ("train", "ingest-fleet")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    want = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    it = iter(argv)
    for flag in it:
        if flag not in want:
            fail(f"unknown flag {flag}")
        want[flag] = next(it, None)
        if want[flag] is None:
            fail(f"{flag} needs a value")
    missing = [k for k, v in want.items() if v is None]
    if missing:
        fail(f"missing {' '.join(missing)}")
    if want["--workload"] not in WORKLOADS:
        fail(f"unknown workload {want['--workload']} ({', '.join(WORKLOADS)})")
    if want["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return want


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "icfl-server",
         "--bin", "icfl-server"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    args = parse(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        fail("no Cargo workspace at the repository root; run from a full checkout")
    build(root, target)
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench", f"{args['--workload']}-{os.getpid()}")
    cmd = [
        os.path.join(release, "icfl-perfbench"),
        "--workload", args["--workload"],
        "--seed", args["--seed"],
        "--seconds", args["--seconds"],
        "--trace", args["--trace"],
        "--server-bin", os.path.join(release, "icfl-server"),
        "--work-dir", work,
    ]
    try:
        code = subprocess.run(cmd, cwd=root).returncode
    finally:
        # Keep the traced run's Chrome trace; drop everything else.
        subprocess.run(["find", work, "-mindepth", "1", "-not", "-name", "trace-*.json",
                        "-delete"], stderr=subprocess.DEVNULL)
    sys.exit(code)


if __name__ == "__main__":
    main()
