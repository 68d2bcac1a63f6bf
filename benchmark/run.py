#!/usr/bin/env python3
"""Builds the sparqluo end-to-end benchmark and runs its workloads.

  python3 benchmark/run.py --seed N [--workload NAME] [--seconds S]
                           [--trace 0|1 | --traced] [--smoke]

Run from the repository root. The benchmark program (sparqluo_bench) is
built in Release under build/benchmark (benchmark/CMakeLists.txt adds the
parent project), then each workload runs in its own process, so set-up
time and memory are its own. Every metric is printed as
`workload metric value unit`.

With --workload the program's output is passed through unchanged: its last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
Without it all four workloads run, a results file is written to
build/benchmark/results/seed<N>-<untraced|traced>.json (benchmark/compare.py
reads a directory of them) and the last line summarizes the run.

Exits non-zero if the build fails, a workload fails its correctness gate,
or a workload does not finish in time.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build" / "benchmark"
BINARY = BUILD_DIR / "sparqluo_bench"
WORKLOADS = ["lubm-distinct", "lubm-hot", "paper-embedded", "lubm-rw"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 2.0


def default_seconds():
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 10.0


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: no sparqluo sources next to benchmark/; nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "sparqluo_bench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def run_workload(name, args):
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("--smoke", action="store_true",
                   help="LUBM(1) and DBpedia 3k for 2 s each: checks the harness")
    args = p.parse_args()
    if args.traced:
        args.trace = 1
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else default_seconds()

    build()
    names = [args.workload] if args.workload else WORKLOADS
    results = {}
    ok = True
    for name in names:
        code, lines, result = run_workload(name, args)
        body = lines[:-1] if args.workload is None else lines
        for line in body:
            print(line, flush=True)
        if result is None:
            sys.exit(f"run.py: {name} exited {code} without a result")
        results[name] = result
        ok = ok and code == 0 and result.get("correct") is True
        if args.workload is not None:
            break

    if args.workload is None:
        kind = "traced" if args.trace else "untraced"
        path = BUILD_DIR / "results" / f"seed{args.seed}-{kind}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "workloads": results}, indent=1) + "\n")
        print(f"# results written to {path}", file=sys.stderr)
        print(json.dumps({
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()}}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
