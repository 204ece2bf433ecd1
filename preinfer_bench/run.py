#!/usr/bin/env python3
"""Builds the serving binaries and the benchmark harness, then runs one workload.

usage: python3 preinfer_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `preinferd` and `preinfer-router` (through the workspace manifest)
and `preinfer_bench` (through its own) from this checkout's sources in
release mode into $CARGO_TARGET_DIR. That defaults to `.bench_build/` at
the repository root, apart from `target/`, so benchmark builds and
development builds never invalidate each other; a relative value is taken
from the repository root. Then it replaces itself with the harness. The
harness's last line on stdout is the run's JSON result and its exit status
is the run's status. Build output goes to stderr. See workloads/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "server"))):
        sys.exit("run.py: no workspace sources next to %s; the benchmark builds "
                 "the daemon from them" % HERE)

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for cmd in (cargo + ["-p", "server", "--bin", "preinferd", "--bin", "preinfer-router"],
                cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")]):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))

    harness = os.path.join(target, "release", "preinfer_bench")
    argv = [harness, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if args.trace:
        argv.append("--trace")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(harness, argv)


if __name__ == "__main__":
    main()
