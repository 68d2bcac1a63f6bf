#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

  python3 benchmark/compare.py A/ B/          # A = parent, B = change
  python3 benchmark/compare.py --self A/ B/   # two sets of runs of one commit

A and B are directories of results files written by benchmark/run.py (one
file per run; untraced runs only). For every workload and end-to-end metric
of BENCHMARK.json it prints each side's median and quartiles, each side's
spread (interquartile range / median), B's change against A, the share of
seed-paired runs B wins, and a verdict:

  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  a side's spread exceeds the bound, so the medians cannot tell
              (unless every run of B beats every run of A)
  improved    B wins at least 9 of 10 pairs and the medians differ by more
              than A's interquartile range
  unchanged   otherwise

Exits 1 when a metric regressed (or, with --self, when any median moved by
more than its bound), else 0.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, metric): {seed: value}} from the untraced results files."""
    runs = {}
    files = sorted(Path(directory).glob("*.json"))
    for f in files:
        doc = json.loads(f.read_text())
        if doc.get("trace"):
            continue
        for workload, result in doc["workloads"].items():
            for metric, v in result["metrics"].items():
                runs.setdefault((workload, metric), {})[(doc["seed"], f.name)] = v["value"]
    if not runs:
        sys.exit(f"compare.py: no untraced results in {directory}")
    return runs


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--self", dest="self_check", action="store_true",
                   help="A and B are runs of the same code: check they agree")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    a, b = load(args.a), load(args.b)

    print(f"{'workload':15} {'metric':12} {'A median [q1,q3]':>30} "
          f"{'B median [q1,q3]':>30} {'sprA':>6} {'sprB':>6} {'change':>8} "
          f"{'bound':>6} {'wins':>5}  verdict")
    failed = False
    for workload in workloads:
        for name, m in metrics.items():
            key = (workload, name)
            if key not in a or key not in b:
                print(f"{workload:15} {name:12} missing")
                failed = True
                continue
            lower = m["better"] == "lower"
            bound = m["bound"]
            ma, qa1, qa3, sa = summary(a[key].values())
            mb, qb1, qb3, sb = summary(b[key].values())
            change = (mb - ma) / ma if ma else 0.0
            worse = change if lower else -change  # > 0: B is worse

            def better(x, y):
                return x < y if lower else x > y

            # Pair runs by seed; runs of one seed pair up in file order.
            pairs = []
            by_seed_a, by_seed_b = {}, {}
            for (seed, _), v in sorted(a[key].items()):
                by_seed_a.setdefault(seed, []).append(v)
            for (seed, _), v in sorted(b[key].items()):
                by_seed_b.setdefault(seed, []).append(v)
            for seed in by_seed_a.keys() & by_seed_b.keys():
                pairs += zip(by_seed_a[seed], by_seed_b[seed])
            wins = sum(better(vb, va) for va, vb in pairs)
            win_ratio = wins / len(pairs) if pairs else 0.0
            all_better = all(better(vb, va) for va in a[key].values()
                             for vb in b[key].values())

            if args.self_check:
                verdict = "agree" if abs(change) <= bound else "DISAGREE"
                failed |= abs(change) > bound
            elif (sa > bound or sb > bound) and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                failed = True
            elif win_ratio >= 0.9 and better(mb, ma) and abs(mb - ma) > qa3 - qa1:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{workload:15} {name:12} "
                  f"{ma:>12.4g} [{qa1:.4g},{qa3:.4g}]".ljust(59) +
                  f"{mb:>12.4g} [{qb1:.4g},{qb3:.4g}]".ljust(31) +
                  f"{sa:6.3f} {sb:6.3f} {change:+8.3f} {bound:6.3f} "
                  f"{wins:>2}/{len(pairs):<2}  {verdict}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
