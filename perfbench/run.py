#!/usr/bin/env python3
"""Sizing-run benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the kato library from src/) on first use into
$CARGO_TARGET_DIR (default .bench_build), then runs the workload in one
process at KATO_THREADS = nproc.  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics and a Chrome trace-event file.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; a failed correctness check exits non-zero and prints no metrics.
A self-describing copy of every result, with the KATO_* environment, thread
counts, compiler, build type, git commit and seeds, is written under
<build dir>/results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# set-up time is the median over this many processes (the measuring one
# plus SETUP_SAMPLES - 1 that stop after set-up).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configure once, then build the benchmark binary (a no-op when fresh)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "kato.hpp")):
        fail(f"kato sources not found under {ROOT}/src")
    pkg = os.path.join(bdir, "perfbench")
    os.makedirs(pkg, exist_ok=True)
    log_path = os.path.join(pkg, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(pkg, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", pkg,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", pkg, "--target", "sizing_bench",
                  "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(pkg, "sizing_bench")


def nproc():
    return len(os.sched_getaffinity(0))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
            stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(cmd, env):
    """Run the benchmark binary; returns (stdout lines, parsed last line)."""
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}", 4)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        for line in lines:
            print(line)
        fail(f"{' '.join(cmd)} exited with code {proc.returncode}",
             proc.returncode or 3)
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"unparseable result line: {lines[-1]!r}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)

    env = dict(os.environ)
    env["KATO_THREADS"] = str(nproc())
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--out", out_dir]

    lines, result = run_child(base + ["--trace", str(args.trace)], env)
    for line in lines:
        print(line)
    metrics = result["metrics"]
    if not args.trace:
        samples = [metrics["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(
                run_child(base + ["--trace", "0", "--setup-only"], env)[1]["setup_s"])
        metrics["setup_s"]["value"] = statistics.median(samples)
        result["setup_s_samples"] = samples
        print("setup_s samples: " + " ".join(f"{s:.6f}" for s in samples))

    result["env"]["git_commit"] = git_commit()
    artifact = os.path.join(
        out_dir, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(artifact, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    print(f"result written to {artifact}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
