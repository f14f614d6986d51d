#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload conquer --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The last line of standard output is the
result object; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("conquer", "verified_synth", "serve_mix")
OUT_DIR = ".perfbench"


def die(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def flambda():
    try:
        out = subprocess.run(
            ["ocamlfind", "ocamlopt", "-config"],
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    # the program's sources must be here: the benchmark builds them
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            die(f"no {needed} in {os.getcwd()}: run from the root of a checkout")
    # the shared dune cache lives outside the checkout; keep builds inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    serve_exe = os.path.join("_build", "default", "bin", "lr_serve.exe")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe",
         "./bin/lr_serve.exe"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        die("build failed")
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--serve-exe", serve_exe,
        "--out-dir", OUT_DIR,
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--flambda", flambda(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
