#!/usr/bin/env python3
"""End-to-end SABER benchmark through a live saber_server.

One run of one workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload sg2-saturate --seed 1 --seconds 30 --trace 0

builds saber_server and the load generator from this checkout (into
.bench_build/), runs the workload for --seconds, and prints human-readable
lines followed by one JSON line with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
(from a server run with every task traced) with --trace 1. It exits 1,
after that line, when the run's correctness check fails.

Every workload, untraced and traced, with every metric, unit and sample
count printed; exits non-zero if any correctness check fails:

    python3 perfbench/run.py --all [--seed N]

See perfbench/README.md for the workloads, metric definitions and results.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKDIR = ROOT / ".bench_build" / "runs"
RUN_TIMEOUT_S = 170
DEFAULT_SERVER_FLAGS = "--workers 2"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds saber_server and the load generator."""
    if not (ROOT / "src").is_dir() or not (ROOT / "tools").is_dir():
        log("perfbench: the SABER sources (src/, tools/) are not beside perfbench/")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--parallel", str(os.cpu_count() or 1),
         "--target", "perfbench_loadgen", "saber_server"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """SHA-256 over the files the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(args):
    """One benchmark run; returns the process exit code."""
    build()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", str(BUILD / "saber" / "tools" / "saber_server"),
           "--server-flags", args.server_flags, "--workdir", str(WORKDIR)]
    if args.paced_rate:
        cmd += ["--paced-rate", str(args.paced_rate)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S}s")
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: load generator exited with {proc.returncode}")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    meta = dict(result["meta"])
    meta.update({
        "workload": args.workload,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "machine": platform.machine(),
        "kernel": platform.release(),
    })
    print("meta " + json.dumps(meta, sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)
    if not (result["correct"] and result["failed"] == 0):
        log(f"perfbench: {args.workload} failed its correctness check")
        return 1
    return 0


def run_all(args):
    """Every workload of BENCHMARK.json, untraced then traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            print(f"== {workload['name']} trace={trace}: {workload['why']}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            passed = result is not None and result["correct"] and result["failed"] == 0
            print(f"== {workload['name']} trace={trace}: "
                  f"{'correct' if passed else 'FAILED'}", flush=True)
            ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--server-flags", default=DEFAULT_SERVER_FLAGS,
                        help="saber_server flags, one fixed set for every workload")
    parser.add_argument("--paced-rate", type=float, default=0,
                        help="override the offered rate in tuples/s (rate calibration)")
    parser.add_argument("--all", action="store_true",
                        help="run every workload in BENCHMARK.json, untraced and traced")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
