#!/usr/bin/env python3
"""Builds and runs the layered serving benchmark (see README.md).

Run from the repository root:

  python3 servebench/run.py --workload fig5_hot --seed 1 --seconds 10 --trace 0
      One measured run. The last stdout line is the result JSON.
  python3 servebench/run.py [--seed N] [--seconds S]
      Every workload, untraced then traced, with a summary table.
  python3 servebench/run.py --smoke
      Self-check at tiny sizes: every workload, untraced and traced; every
      metric of BENCHMARK.json present with its unit, answers correct and
      trace.coverage >= 0.9.

The benchmark is a standalone CMake project that compiles the engine from
src/ into .bench_build/servebench (Release). Nothing is written outside the
repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "servebench")
WORKLOADS = ["fig5_hot", "fig7_large", "users_churn"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "servebench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def provenance():
    """Git sha when the tree is a git checkout, and a digest of the sources
    either way (the benchmark also runs from exported trees)."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, smoke, prov, echo):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--git-sha", prov[0],
           "--source-digest", prov[1]]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"servebench: {workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(prov):
    spec = load_spec()
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run_one(workload, 1, 1.5, trace, True, prov, False)
            label = f"{workload} trace={trace}"
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{label}: exit {code}, result {result}")
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None:
                    failures.append(f"{label}: missing {m['name']}")
                elif got.get("unit") != m["unit"]:
                    failures.append(f"{label}: {m['name']} unit "
                                    f"{got.get('unit')} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in spec[key]}
            if extra:
                failures.append(f"{label}: undeclared {sorted(extra)}")
            if trace == 1:
                coverage = metrics.get("trace.coverage", {}).get("value", 0)
                if coverage < 0.9:
                    failures.append(f"{label}: trace.coverage {coverage} < 0.9")
            print(f"ok   {label}: {result['attempted']} requests")
    for f in failures:
        print(f"FAIL {f}")
    print("smoke self-check: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


def run_all(seed, seconds, prov):
    rows, status = [], 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(workload, seed, seconds, trace, False, prov,
                                   True)
            if code != 0 or result is None:
                status = 1
            elif trace == 0:
                rows.append((workload, result))
    print("\nsummary (end to end, untraced)")
    for workload, result in rows:
        cells = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"  {workload:12s} {cells}; error_rate "
              f"{result['failed'] / max(1, result['attempted']):.4g} ratio")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        log("servebench: build failed")
        return 1
    prov = provenance()
    if args.smoke:
        return smoke(prov)
    if args.workload is None:
        return run_all(args.seed, args.seconds, prov)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                      False, prov, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
