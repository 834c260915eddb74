#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Collect runs (from the repository root of the commit being measured):

    python3 wlbench/compare.py collect --out change.jsonl \
        --workloads fe16_serve,fe16_speculative --seeds 1-10 [--trace 0]

Each run's result line is appended to the file as
{"workload", "seed", "trace", "result"}. Compare a parent and a change:

    python3 wlbench/compare.py diff parent.jsonl change.jsonl

prints one row per (workload, metric): each side's median and quartiles,
the spread of the parent's runs (interquartile distance over median), how
many seed-paired runs the change won, and a verdict:

  gain         the change won at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile distance
  regression   the change's median is worse than the parent's by more than
               the metric's bound (end-to-end metrics only)
  loss         per-layer metric: the parent won at least 9 of 10 pairs and
               the medians differ by more than the parent's quartile gap
  unresolved   the parent's spread exceeds the bound, and not every change
               run reads better than every parent run
  same         none of the above

Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args):
    spec = load_spec()
    seconds = str(spec["run_seconds"])
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", seconds, "--trace", args.trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                last = proc.stdout.rstrip("\n").split("\n")[-1]
                try:
                    result = json.loads(last)
                except json.JSONDecodeError:
                    print(f"{workload} seed {seed}: no result "
                          f"(exit {proc.returncode})", file=sys.stderr)
                    continue
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": int(args.trace),
                                      "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"correct {result['correct']}", file=sys.stderr)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_runs(path):
    """{(workload, metric): {seed: value}} of the correct runs in a file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if not run["result"]["correct"]:
                continue
            for name, metric in run["result"]["metrics"].items():
                runs.setdefault((run["workload"], name), {})[run["seed"]] = \
                    metric["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Applies the paired-runs rule; `parent`/`change` map seed -> value."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(list(parent.values()))
    _, cm, _ = quartiles(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    if not seeds:  # unpaired sets: pair in file order instead
        pairs = list(zip(parent.values(), change.values()))
    else:
        pairs = [(parent[s], change[s]) for s in seeds]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = p3 - p1
    spread = gap / abs(pm) if pm else 0.0
    if bound is not None and spread > bound:
        all_better = all(sign * (c - p) > 0 for c in change.values()
                         for p in parent.values())
        if not all_better:
            return "unresolved", wins, len(pairs), spread
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > gap:
        return "gain", wins, len(pairs), spread
    if bound is not None and sign * (pm - cm) > bound * abs(pm):
        return "regression", wins, len(pairs), spread
    if bound is None and pairs and losses >= 0.9 * len(pairs) and \
            abs(cm - pm) > gap:
        return "loss", wins, len(pairs), spread
    return "same", wins, len(pairs), spread


def diff(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    header = (f"{'workload':18s} {'metric':28s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'spread':>7s} {'won':>6s}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        result, wins, n, spread = verdict(parent[key], change[key],
                                          m["better"], m.get("bound"))
        p = quartiles(list(parent[key].values()))
        c = quartiles(list(change[key].values()))
        print(f"{workload:18s} {name:28s} "
              f"{p[0]:10.4g} {p[1]:10.4g} {p[2]:10.4g} "
              f"{c[0]:10.4g} {c[1]:10.4g} {c[2]:10.4g} "
              f"{spread:7.3f} {wins:3d}/{n:<2d}  {result}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run the benchmark, append results")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads", default="")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", choices=["0", "1"], default="0")
    d = sub.add_parser("diff", help="compare two collected sets")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
    else:
        diff(args)


if __name__ == "__main__":
    main()
