#!/usr/bin/env python3
"""Summarises benchmark runs, and compares two sets of runs.

    python3 perfbench/report.py RUNS...                  # per-metric summary
    python3 perfbench/report.py RUNS... --against BASE... # per-metric deltas

Each RUNS/BASE argument is a file holding one run's standard output (as
printed by perfbench/run.py), or a directory of such files. The summary
prints, per workload and metric, the median, the quartiles (Python's
statistics.quantiles, n=4), the run-to-run spread (interquartile range
over median) and the sample counts. The comparison prints the change of
each median and a verdict against the metric's bound: a pairing whose
spread on either side exceeds its bound is `unresolved`, unless every run
of one side beats every run of the other. Runs of the same workload and
seed must carry the same simulated digest; a mismatch is reported.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETAIL = "PERFBENCH_DETAIL "


def load_bounds():
    """Metric name -> (better, bound) from BENCHMARK.json and spec.json."""
    bounds = {}
    spec_path = os.path.join(HERE, "spec.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            for name, m in json.load(f)["metrics"].items():
                bounds[name] = (m["better"], m.get("bound"))
    bench_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(bench_path):
        with open(bench_path) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["better"], m["bound"])
    return bounds


def parse_run(text):
    """One run's stdout -> dict(workload, seed, digest, metrics) or None."""
    lines = text.rstrip("\n").split("\n")
    detail = next((json.loads(l[len(DETAIL):]) for l in lines
                   if l.startswith(DETAIL)), None)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if detail is None or result.get("correct") is not True:
        return None
    metrics = {name: {"value": m["value"], "unit": m["unit"], "samples": 1,
                      "clock": "layer" if detail["trace"] else "-"}
               for name, m in result["metrics"].items()}
    metrics.update(detail["metrics"])
    return {"workload": detail["workload"], "seed": detail["seed"],
            "trace": detail["trace"], "digest": detail["digest"],
            "metrics": metrics}


def load_runs(paths):
    runs = []
    for path in paths:
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for name in files:
            with open(name) as f:
                run = parse_run(f.read())
            if run is None:
                print(f"report: skipping {name}: no valid result",
                      file=sys.stderr)
            else:
                runs.append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def collect(runs):
    """(workload, metric) -> {values, unit, clock, samples}."""
    table = {}
    for run in runs:
        for name, m in run["metrics"].items():
            entry = table.setdefault((run["workload"], name), {
                "values": [], "unit": m["unit"], "clock": m.get("clock", "-"),
                "samples": []})
            entry["values"].append(m["value"])
            entry["samples"].append(m.get("samples", 1))
    return table


def digest_mismatches(runs):
    seen = {}
    bad = []
    for run in runs:
        key = (run["workload"], run["seed"])
        if seen.setdefault(key, run["digest"]) != run["digest"]:
            bad.append(key)
    return sorted(set(bad))


def summarize(runs):
    rows = ["| workload | metric | unit | clock | runs | median | q1 | q3 "
            "| spread | samples/run |",
            "|---|---|---|---|---|---|---|---|---|---|"]
    for (workload, name), e in sorted(collect(runs).items()):
        v = e["values"]
        q1, q3 = quartiles(v)
        rows.append(
            f"| {workload} | {name} | {e['unit']} | {e['clock']} | {len(v)} "
            f"| {statistics.median(v):.6g} | {q1:.6g} | {q3:.6g} "
            f"| {spread(v):.4f} | {int(statistics.median(e['samples']))} |")
    return rows


def verdict(base, cand, better, bound):
    """One comparison cell: 'better', 'same', 'worse' or 'unresolved'."""
    b_med = statistics.median(base)
    c_med = statistics.median(cand)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    beats_all = all(sign * (c - b) > 0 for c in cand for b in base)
    loses_all = all(sign * (c - b) < 0 for c in cand for b in base)
    if bound is not None and max(spread(base), spread(cand)) > bound:
        if beats_all:
            return "better"
        return "worse" if loses_all and -change > bound else "unresolved"
    if bound is not None and -change > bound:
        return "worse"
    if change > spread(base) and beats_all:
        return "better"
    return "same"


def compare(cand_runs, base_runs):
    bounds = load_bounds()
    base = collect(base_runs)
    rows = ["| workload | metric | unit | base median | candidate median "
            "| change | base spread | candidate spread | bound | verdict |",
            "|---|---|---|---|---|---|---|---|---|---|"]
    worse = 0
    for key, c in sorted(collect(cand_runs).items()):
        if key not in base:
            continue
        b = base[key]
        better, bound = bounds.get(key[1], ("lower", None))
        v = verdict(b["values"], c["values"], better, bound)
        worse += v == "worse"
        b_med = statistics.median(b["values"])
        c_med = statistics.median(c["values"])
        change = (c_med - b_med) / abs(b_med) if b_med else 0.0
        rows.append(
            f"| {key[0]} | {key[1]} | {c['unit']} | {b_med:.6g} | {c_med:.6g} "
            f"| {change:+.2%} | {spread(b['values']):.4f} "
            f"| {spread(c['values']):.4f} "
            f"| {'-' if bound is None else bound} | {v} |")
    return rows, worse


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=None)
    args = parser.parse_args(argv)
    runs = load_runs(args.runs)
    if not runs:
        print("report: no valid runs", file=sys.stderr)
        return 1
    status = 0
    for key in digest_mismatches(runs):
        print(f"report: digest differs between runs of {key[0]} seed {key[1]}")
        status = 1
    if args.against is None:
        print("\n".join(summarize(runs)))
        return status
    base_runs = load_runs(args.against)
    for key in digest_mismatches(base_runs):
        print(f"report: digest differs between base runs of {key[0]} "
              f"seed {key[1]}")
        status = 1
    rows, worse = compare(runs, base_runs)
    print("\n".join(rows))
    return 1 if worse else status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
