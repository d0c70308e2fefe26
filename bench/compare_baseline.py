#!/usr/bin/env python3
"""Diff a BENCH_micro_perf.json run against the committed baseline.

Usage:
    compare_baseline.py <current.json> <baseline.json> [--tol 0.25]
                        [--enforce-scaling]

Prints a GitHub-flavored markdown delta table (pipe it into
$GITHUB_STEP_SUMMARY from the workflow) covering every tracked top-level
`*_ms` field, plus the speedup ratios for context.  Exits non-zero when any
tracked `*_ms` field regressed by more than --tol (default 25%) relative to
the baseline — absolute per-iteration times, so expect noise on shared
runners; KATO_BENCH_TOL overrides the threshold without editing workflows.

Fields present in only one of the two files are reported (status `new` /
`removed`) instead of erroring, so baseline and bench can evolve in either
order across PRs.

Same-thread A/B ratios (SPEEDUP_FLOORS, e.g. device_table_speedup) are
floored whenever the current run reports them: both arms run in the same
binary on the same cores, so the ratio is machine-independent.
Thread-scaling ratios (SCALING_FLOORS) compare a 1-thread run against a
multi-thread run and only mean anything on a multi-core runner; they are
floored only under --enforce-scaling, and skipped with a loud note when the
current run reports hardware_concurrency < 2.  Overhead ratios (`*_ratio`
fields, RATIO_CEILINGS — e.g. trace_overhead_ratio <= 1.05) are ceilings,
enforced whenever the current run reports them for the same
machine-independence reason as the speedup floors.

Only the Python standard library is used.
"""

import json
import os
import sys

# Speedup fields that compare a 1-thread run against a multi-thread run of
# the same code.  On a 1-core runner they measure the machine, not the code
# (the ROADMAP flags eval_batch_speedup ~0.95 on CI as exactly this
# artifact), so they are skipped with a note when the current run reports
# hardware_concurrency < 2.  Under --enforce-scaling (the multi-core CI
# bench job) they become hard floors.
# eval_batch_builtin_speedup (built-in opamp2, 8 candidates, serial evaluate
# loop vs the base SizingCircuit::evaluate_batch at 4 threads) is ~2.8x on 4
# cores; the floor at about half fails if built-in circuits fall back to a
# serial batch loop.
SCALING_FIELDS = {"eval_batch_speedup", "eval_batch_builtin_speedup",
                  "gp_fit_parallel_speedup"}
SCALING_FLOORS = {"eval_batch_speedup": 2.0,
                  "eval_batch_builtin_speedup": 1.4,
                  "gp_fit_parallel_speedup": 1.5}

# Same-binary, same-thread-count A/B ratios: machine-independent, enforced
# whenever the current run reports them.  kat_source_grad_speedup (per-point
# predict_std_grad loop / predict_std_grad_batch, n = 200, 128 queries) is
# ~2.0-2.5x with the blocked K^-1 contraction (2.50x with the gradient
# contracted from the cross row) and ~0.8-1.1x with per-query row-dots, so
# the floor at about half the measured ratio catches a regression back to
# row-dots.
SPEEDUP_FLOORS = {"device_table_speedup": 3.0, "kat_source_grad_speedup": 1.2}

# Overhead ratios (`*_ratio` fields, current/reference arms interleaved in
# the same binary): machine-independent ceilings, enforced whenever the
# current run reports them.  trace_overhead_ratio is the cost of running a
# full transient evaluation with an active KATO_TRACE session — the
# instrumentation contract is <= 5% on its densest path.
# journal_overhead_ratio is the cost of a whole seeded BO run with a
# KATO_RUN_LOG session streaming per-iteration JSONL; same <= 5% contract.
# recovery_off_overhead_ratio is the cost of the fault-injection and
# eval-deadline checks when armed but idle (never-firing fault + far-future
# deadline vs everything disarmed); same <= 5% contract.
RATIO_CEILINGS = {"trace_overhead_ratio": 1.05,
                  "journal_overhead_ratio": 1.05,
                  "recovery_off_overhead_ratio": 1.05}


def load(path):
    with open(path) as f:
        return json.load(f)


def is_num(v):
    return isinstance(v, (int, float))


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])
    tol = 0.25
    if "--tol" in argv:
        tol = float(argv[argv.index("--tol") + 1])
    if os.environ.get("KATO_BENCH_TOL"):
        tol = float(os.environ["KATO_BENCH_TOL"])
    enforce_scaling = "--enforce-scaling" in argv

    def keys(suffix):
        both = sorted(
            k for k in baseline
            if k.endswith(suffix) and is_num(baseline[k]) and k in current
        )
        new = sorted(
            k for k in current
            if k.endswith(suffix) and is_num(current[k]) and k not in baseline
        )
        removed = sorted(
            k for k in baseline
            if k.endswith(suffix) and is_num(baseline[k]) and k not in current
        )
        return both, new, removed

    tracked, tracked_new, tracked_removed = keys("_ms")
    ratios, ratios_new, ratios_removed = keys("_speedup")
    overheads, overheads_new, overheads_removed = keys("_ratio")

    failures = []
    print("### micro_perf vs committed baseline (tol %.0f%%)" % (tol * 100))
    print()
    print("| field | baseline | current | delta | status |")
    print("| --- | ---: | ---: | ---: | :-- |")
    for k in tracked:
        base = float(baseline[k])
        cur = float(current[k])
        delta = (cur - base) / base if base > 0 else 0.0
        status = "ok"
        if base > 0 and delta > tol:
            status = "REGRESSED"
            failures.append(k)
        elif delta < -tol:
            status = "improved"
        print(
            "| %s | %.4f ms | %.4f ms | %+.1f%% | %s |"
            % (k, base, cur, delta * 100, status)
        )
    for k in tracked_new:
        print("| %s | — | %.4f ms | — | new |" % (k, float(current[k])))
    for k in tracked_removed:
        print("| %s | %.4f ms | — | — | removed |" % (k, float(baseline[k])))
    cores = int(current.get("hardware_concurrency", 0))
    skipped_scaling = []

    def ratio_status(k, cur):
        """Floor check for a ratio present in the current run."""
        if k in SPEEDUP_FLOORS and cur < SPEEDUP_FLOORS[k]:
            failures.append(k)
            return "BELOW FLOOR %.1fx" % SPEEDUP_FLOORS[k]
        if enforce_scaling and k in SCALING_FLOORS and cur < SCALING_FLOORS[k]:
            failures.append(k)
            return "BELOW FLOOR %.1fx" % SCALING_FLOORS[k]
        return "ratio"

    for k in ratios:
        if k in SCALING_FIELDS and 0 < cores < 2:
            skipped_scaling.append(k)
            print("| %s | %.2fx | — | — | skipped (1-core runner) |"
                  % (k, float(baseline[k])))
            continue
        cur = float(current[k])
        print(
            "| %s | %.2fx | %.2fx | — | %s |"
            % (k, float(baseline[k]), cur, ratio_status(k, cur))
        )
    for k in ratios_new:
        if k in SCALING_FIELDS and 0 < cores < 2:
            skipped_scaling.append(k)
            print("| %s | — | — | — | skipped (1-core runner) |" % k)
            continue
        cur = float(current[k])
        print("| %s | — | %.2fx | — | new, %s |" % (k, cur, ratio_status(k, cur)))
    for k in ratios_removed:
        print("| %s | %.2fx | — | — | removed |" % (k, float(baseline[k])))

    def ceiling_status(k, cur):
        """Ceiling check for an overhead ratio present in the current run."""
        if k in RATIO_CEILINGS and cur > RATIO_CEILINGS[k]:
            failures.append(k)
            return "ABOVE CEILING %.2fx" % RATIO_CEILINGS[k]
        return "ratio"

    for k in overheads:
        cur = float(current[k])
        print(
            "| %s | %.3fx | %.3fx | — | %s |"
            % (k, float(baseline[k]), cur, ceiling_status(k, cur))
        )
    for k in overheads_new:
        cur = float(current[k])
        print("| %s | — | %.3fx | — | new, %s |" % (k, cur, ceiling_status(k, cur)))
    for k in overheads_removed:
        print("| %s | %.3fx | — | — | removed |" % (k, float(baseline[k])))
    print()
    if skipped_scaling:
        print(
            "Note: skipped thread-scaling field(s) %s — the runner reports "
            "hardware_concurrency=%d, so parallel-vs-serial ratios measure "
            "the machine, not the code." % (", ".join(skipped_scaling), cores)
        )
        print()
    if failures:
        print("**Failed fields:** " + ", ".join(failures))
        return 1
    floors = "with" if enforce_scaling else "without"
    print(
        "No tracked `*_ms` field regressed beyond %.0f%%; all speedup floors "
        "and overhead ceilings met (%s thread-scaling floors)."
        % (tol * 100, floors)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
