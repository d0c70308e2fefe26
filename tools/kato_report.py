#!/usr/bin/env python3
"""Render Markdown reports from KATO run journals and stats dumps.

A journal is the JSONL stream produced by KATO_RUN_LOG=<path> (see
src/obs/journal.hpp): one self-contained JSON object per line, with
`run_begin` / `iteration` / `run_end` events per optimization run plus
optional `series_begin` / `series_end` brackets from the experiment harness.
A stats dump is the flat JSON written by KATO_STATS=<path>, which carries the
solver/BO counters, the failure-stage breakdown and the per-stage latency
histogram quantiles.

Usage:
  kato_report.py RUN.jsonl                     single-run convergence report
  kato_report.py RUN.jsonl --stats STATS.json  ... plus latency percentiles
                                               and the failure breakdown
  kato_report.py A.jsonl B.jsonl               A/B diff of two journals
                                               (matched on circuit/mode/
                                               method/seed), used by CI
  kato_report.py RUN.jsonl --check             validate only: every line must
                                               parse, every event must carry
                                               its required keys, and each
                                               run's concatenated iteration
                                               traces must replay its
                                               run_end.regret_curve exactly

Stdlib only, like bench/compare_baseline.py.  Exit code 1 on validation
errors or unreadable inputs.
"""

import argparse
import json
import sys

# Required keys per event type — mirrors the emitters in src/bo/drivers.cpp
# and src/core/experiment.cpp; obs_test pins the same schema from the C++
# side, this tool enforces it on every ingest.
REQUIRED = {
    "run_begin": ["run", "mode", "method", "circuit", "dim", "n_metrics",
                  "seed", "config"],
    "iteration": ["run", "phase", "iter", "sims", "n_prop", "n_valid",
                  "n_feasible", "eval_ms", "proposals", "trace", "best"],
    "run_end": ["run", "sims", "best", "best_x", "stl_w_kat", "stl_w_self",
                "regret_curve"],
    "series_begin": ["name", "circuit", "mode", "n_seeds", "seeds"],
    "series_end": ["name", "circuit", "mode", "n_seeds", "seeds"],
}

STAGES = ["dc", "ac", "tran", "eval", "gp_fit", "acquisition", "kat_fit"]
FAIL_KEYS = ["fail_dc", "fail_ac", "fail_tran", "fail_measure"]
RECOVERY_KEYS = [
    "dc_homotopy_escalations", "dc_pseudo_transients",
    "tran_stepfloor_restarts", "tran_device_fallbacks",
    "lu_pivot_fallbacks", "gp_jitter_retries",
    "deadline_kills", "faults_injected",
]


def load_journal(path, errors):
    """Parse a JSONL journal, appending schema problems to `errors`."""
    events = []
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        errors.append(f"{path}: {exc}")
        return events
    for i, line in enumerate(lines, 1):
        if not line.strip():
            errors.append(f"{path}:{i}: blank line")
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{i}: not valid JSON ({exc})")
            continue
        kind = event.get("event")
        if kind not in REQUIRED:
            errors.append(f"{path}:{i}: unknown event type {kind!r}")
            continue
        missing = [k for k in REQUIRED[kind] if k not in event]
        if missing:
            errors.append(f"{path}:{i}: {kind} missing keys {missing}")
            continue
        events.append(event)
    return events


def group_runs(events, path, errors):
    """Group per-run events by run id and check the replay invariant.

    Run ids are unique within one process but restart at 1 in the next, so a
    journal built by concatenating per-deck runs (the committed CI reference)
    reuses ids; a repeated run_begin for an id opens a new generation rather
    than clobbering the earlier run.
    """
    runs = {}
    generation = {}
    for event in events:
        if "run" not in event:
            continue
        rid = event["run"]
        kind = event["event"]
        if kind == "run_begin":
            generation[rid] = generation.get(rid, -1) + 1
        key = (generation.get(rid, 0), rid)
        run = runs.setdefault(key, {"begin": None, "iters": [], "end": None})
        if kind == "run_begin":
            run["begin"] = event
        elif kind == "iteration":
            run["iters"].append(event)
        elif kind == "run_end":
            run["end"] = event
    for rid, run in sorted(runs.items()):
        if run["begin"] is None:
            errors.append(f"{path}: run {rid_str(rid)} has no run_begin")
        if run["end"] is None:
            # A killed run legitimately leaves a parseable prefix; only
            # --check treats it as an error, reporting still renders it.
            continue
        replay = [v for it in run["iters"] for v in it["trace"]]
        curve = run["end"]["regret_curve"]
        if replay != curve:
            errors.append(
                f"{path}: run {rid_str(rid)} regret_curve does not replay "
                f"from its iteration traces ({len(replay)} vs "
                f"{len(curve)} points)")
        if run["end"]["sims"] != len(curve):
            errors.append(
                f"{path}: run {rid_str(rid)} run_end.sims != curve length")
    return runs


def rid_str(rid):
    generation, run = rid
    return str(run) if generation == 0 else f"{run}#{generation + 1}"


def run_key(run):
    begin = run["begin"]
    return (begin["circuit"], begin["mode"], begin["method"], begin["seed"])


def fmt(value, digits=4):
    if value is None:
        return "inf"  # non-finite best-so-far serializes as null
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def fmt_ns(ns):
    if ns is None:
        return "-"
    if ns >= 1e9:
        return f"{ns / 1e9:.3g} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.3g} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.3g} us"
    return f"{ns:.0f} ns"


def table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(row) + " |" for row in rows]
    return out


def report_runs(runs):
    lines = []
    for rid, run in sorted(runs.items()):
        if run["begin"] is None:
            continue
        begin, end = run["begin"], run["end"]
        lines.append(
            f"### Run {rid_str(rid)}: {begin['circuit']} · {begin['method']} "
            f"({begin['mode']}) · seed {begin['seed']}")
        lines.append("")
        rows = []
        for it in run["iters"]:
            gp = it.get("gp") or {}
            rows.append([
                str(it["iter"]), it["phase"], str(it["sims"]),
                f"{it['n_feasible']}/{it['n_prop']}",
                fmt(it["best"]),
                fmt(it["eval_ms"], 3),
                fmt(gp.get("nll")) if gp else "-",
                ("warm" if gp.get("warm") else
                 "cold" if gp.get("hyper") else "-") if gp else "-",
            ])
        lines += table(["iter", "phase", "sims", "feas/prop", "best",
                        "eval ms", "gp nll", "gp fit"], rows)
        lines.append("")
        if end is None:
            lines.append("**run_end missing — journal is a truncated "
                         "prefix (run killed or still in flight).**")
        else:
            lines.append(
                f"**Final:** best {fmt(end['best'])} after {end['sims']} "
                f"simulations; STL weights kat={fmt(end['stl_w_kat'])} "
                f"self={fmt(end['stl_w_self'])}.")
        lines.append("")
    return lines


def report_stats(stats, title="Stage latency percentiles"):
    lines = [f"### {title}", ""]
    rows = []
    for stage in STAGES:
        count = stats.get(f"hist_{stage}_count", 0)
        if count == 0:
            continue
        rows.append([stage, str(count)] + [
            fmt_ns(stats.get(f"hist_{stage}_p{q}_ns")) for q in (50, 90, 99)])
    if rows:
        lines += table(["stage", "count", "p50", "p90", "p99"], rows)
    else:
        lines.append("(no stage durations recorded)")
    lines.append("")
    evals = stats.get("evals", 0)
    failures = stats.get("eval_failures", 0)
    lines.append("### Failure breakdown")
    lines.append("")
    lines.append(f"{failures} of {evals} evaluations failed.")
    if failures:
        lines.append("")
        rows = []
        for key in FAIL_KEYS:
            n = stats.get(key, 0)
            if n:
                rows.append([key.replace("fail_", ""), str(n),
                             f"{100.0 * n / failures:.1f}%"])
        lines += table(["stage", "failures", "share"], rows)
    lines.append("")
    rows = [[key, str(stats.get(key, 0))]
            for key in RECOVERY_KEYS if stats.get(key, 0)]
    if rows:
        lines.append("### Recovery events")
        lines.append("")
        lines += table(["event", "count"], rows)
        lines.append("")
    return lines


def report_ab(runs_a, runs_b, label_a, label_b):
    lines = [f"### A/B: {label_a} vs {label_b}", ""]
    index_b = {run_key(r): r for r in runs_b.values()
               if r["begin"] is not None}
    rows = []
    matched = 0
    for _, run_a in sorted(runs_a.items()):
        if run_a["begin"] is None or run_a["end"] is None:
            continue
        key = run_key(run_a)
        run_b = index_b.get(key)
        if run_b is None or run_b["end"] is None:
            rows.append([" · ".join(map(str, key)), fmt(run_a["end"]["best"]),
                         "-", "-", "unmatched"])
            continue
        matched += 1
        best_a, best_b = run_a["end"]["best"], run_b["end"]["best"]
        if best_a is None or best_b is None:
            delta, verdict = "-", "infeasible"
        else:
            delta = fmt(best_b - best_a)
            verdict = "same" if best_a == best_b else (
                "B better" if (best_b < best_a) == (key[1] == "constrained")
                else "A better")
        rows.append([" · ".join(map(str, key)), fmt(best_a), fmt(best_b),
                     delta, verdict])
    lines += table([f"run (circuit · mode · method · seed)", "best A",
                    "best B", "delta", "verdict"], rows)
    lines.append("")
    lines.append(f"{matched} matched run(s); best is minimized in "
                 "constrained mode, maximized in fom mode.")
    lines.append("")
    return lines


def main():
    parser = argparse.ArgumentParser(
        description="Markdown reports from KATO run journals / stats dumps")
    parser.add_argument("journal", help="run journal (JSONL)")
    parser.add_argument("journal_b", nargs="?",
                        help="second journal for an A/B diff")
    parser.add_argument("--stats", help="KATO_STATS dump for latency/failure "
                                        "tables")
    parser.add_argument("--stats-b", help="second stats dump (A/B)")
    parser.add_argument("--check", action="store_true",
                        help="validate schema and regret replay, no report")
    parser.add_argument("--title", default="KATO run report")
    args = parser.parse_args()

    errors = []
    events_a = load_journal(args.journal, errors)
    runs_a = group_runs(events_a, args.journal, errors)

    if args.check:
        for rid, run in sorted(runs_a.items()):
            if run["end"] is None:
                errors.append(
                    f"{args.journal}: run {rid_str(rid)} has no run_end")
        for err in errors:
            print("CHECK FAIL:", err, file=sys.stderr)
        if errors:
            return 1
        n_iters = sum(len(r["iters"]) for r in runs_a.values())
        print(f"{args.journal}: OK ({len(events_a)} events, "
              f"{len(runs_a)} run(s), {n_iters} iteration record(s))")
        return 0

    lines = [f"## {args.title}", ""]
    if args.journal_b:
        events_b = load_journal(args.journal_b, errors)
        runs_b = group_runs(events_b, args.journal_b, errors)
        lines += report_ab(runs_a, runs_b, args.journal, args.journal_b)
    else:
        lines += report_runs(runs_a)
    if args.stats:
        try:
            lines += report_stats(json.load(open(args.stats)))
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{args.stats}: {exc}")
    if args.stats_b:
        try:
            lines += report_stats(json.load(open(args.stats_b)),
                                  title=f"Stage latency ({args.stats_b})")
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{args.stats_b}: {exc}")

    print("\n".join(lines))
    for err in errors:
        print("WARNING:", err, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
