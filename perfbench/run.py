#!/usr/bin/env python3
"""Build cpsdim and the benchmark harness from source, then run one
benchmark measurement.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Both executables are built with
dune into the directory named by CARGO_TARGET_DIR (default
.bench_build), with dune's shared cache disabled so that nothing is
written outside the checkout.  The harness prints progress lines and,
as its last line, the JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

WORKLOADS = ("paper-oneshot", "serve-fleet")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    args = {}
    it = iter(argv)
    for k in it:
        if not k.startswith("--"):
            die(f"unexpected argument {k!r}")
        try:
            args[k[2:]] = next(it)
        except StopIteration:
            die(f"{k} wants a value")
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in args:
            die(f"--{k} is required")
    if args["workload"] not in WORKLOADS:
        die(f"unknown workload {args['workload']!r} (have {', '.join(WORKLOADS)})")
    if args["trace"] not in ("0", "1"):
        die("--trace is 0 or 1")
    for k in ("seed", "seconds"):
        if not args[k].isdigit():
            die(f"--{k} wants a whole number")
    return args


def main():
    args = parse(sys.argv[1:])
    for f in ("dune-project", "bin/main.ml", "perfbench/bench.ml"):
        if not os.path.isfile(f):
            die(f"{f} not found: run from the root of a cpsdim checkout")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    for var in ("CPSDIM_JOBS", "CPSDIM_CACHE"):
        env.pop(var, None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./bin/main.exe", "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        die("build failed")
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    cpsdim = os.path.join(build_dir, "default", "bin", "main.exe")
    sys.stdout.flush()
    rc = subprocess.run(
        [exe, "--workload", args["workload"], "--seed", args["seed"],
         "--seconds", args["seconds"], "--trace", args["trace"],
         "--cpsdim", cpsdim],
        env=env).returncode
    sys.exit(rc)


if __name__ == "__main__":
    main()
