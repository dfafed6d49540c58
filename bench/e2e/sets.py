#!/usr/bin/env python3
"""Run the e2e benchmark in sets of seeded runs and summarise each metric.

    python3 bench/e2e/sets.py [--runs 10] [--sets 2] [--workload NAME ...]
        [--out bench/e2e/baseline/seed.json]

Run it from the repository root. Every run is one call of the command in
BENCHMARK.json, with its own seed and BENCHMARK.json's run_seconds: set k
uses seeds k*runs+1 .. (k+1)*runs. For each workload and end-to-end
metric it prints the median of each set, the quartile spread
(q3 - q1) / median of each set, and how far the last set's median is
from the first's in the metric's worse direction, against the metric's
bound. With --out, it writes all of that, plus the machine, as the JSON
baseline that `e2e.exe --compare` reads.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)}: outputs were wrong")
    return {name: m["value"] for name, m in result["metrics"].items()}


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="write the summary as a baseline JSON file")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    summary = {}
    for w in workloads:
        runs = [[] for _ in range(args.sets)]
        for k in range(args.sets):
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                runs[k].append(run_once(bench["command"], w, seed, bench["run_seconds"]))
                print(f"  {w} set {k} seed {seed} done", file=sys.stderr)
        summary[w] = {}
        print(f"\n{w}: {args.sets} sets x {args.runs} runs")
        print(f"  {'metric':34} {'unit':6} {'bound':>6} " +
              " ".join(f"{'set ' + str(k) + ' median':>16} {'spread':>7}" for k in range(args.sets)) +
              f" {'drift':>7}")
        for m in metrics:
            name, unit = m["name"], m["unit"]
            sets = []
            for k in range(args.sets):
                vals = [r[name] for r in runs[k]]
                q1, med, q3 = quartiles(vals)
                sets.append({"seeds": [k * args.runs + i + 1 for i in range(args.runs)],
                             "values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None})
            first, last = sets[0]["median"], sets[-1]["median"]
            change = (last - first) / first if first else 0.0
            drift = -change if m["better"] == "higher" else change
            allv = [v for s in sets for v in s["values"]]
            q1, med, q3 = quartiles(allv)
            summary[w][name] = {"unit": unit, "better": m["better"], "bound": m["bound"],
                                "median": med, "q1": q1, "q3": q3, "drift": drift, "sets": sets}
            print(f"  {name:34} {unit:6} {m['bound']:>6.0%} " +
                  " ".join(f"{s['median']:16.6g} {'' if s['spread'] is None else format(s['spread'], '.1%'):>7}"
                           for s in sets) + f" {drift:+7.1%}")

    if args.out:
        doc = {
            "machine": {"nproc": os.cpu_count(), "ocaml": ocaml_version(), "cpu": cpu_model(),
                        "system": platform.platform()},
            "command": bench["command"],
            "run_seconds": bench["run_seconds"],
            "runs_per_set": args.runs,
            "workloads": summary,
        }
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
