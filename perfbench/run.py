#!/usr/bin/env python3
"""Builds `repro` and the perfbench harness from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-quick, replay-scaling, trace-stream, serve-mix. The last
line of standard output is the JSON result; see perfbench/README.md.
Build artifacts go to $CARGO_TARGET_DIR (default .bench_build) and the
run's scratch files to .bench_work, both inside the checkout.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """A digest of every source file the measured program is built from."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, name) for name in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "dvp-experiments", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for step in steps:
        # Build output goes to stderr so stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")


def main():
    golden = os.path.join(ROOT, "tests", "golden", "repro_quick_all.txt")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isfile(golden):
        fail("run from the repository root: Cargo.toml or the quick-run golden is missing")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)
    release = os.path.join(target_dir, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--repro", os.path.join(release, "repro"),
        "--golden", golden,
        "--work", os.path.join(ROOT, ".bench_work"),
        "--commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
