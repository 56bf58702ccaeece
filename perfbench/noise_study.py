#!/usr/bin/env python3
"""A/A noise study: runs each workload once per seed on the same build, in
two (--sets) sets one after the other, and records every end-to-end
metric's per-run values, median, quartiles and spread (interquartile
distance over median, statistics.quantiles n=4) per set, each run's vCPU
steal share as the driver reports it and its wall time (build check and
warm-up included), and how much worse each metric's
median is in the last set than in the first (drift).

    python3 perfbench/noise_study.py --seeds 0-9 --out perfbench/results/aa_noise.json
    python3 perfbench/noise_study.py --workloads lr_async --seeds 1-5 --sets 1

Run from the repository root. Prints one line per metric and set and one
drift line per metric, flagging spreads and drifts above the metric's
bound in BENCHMARK.json; --out also writes the full record as JSON.
Exits 1 when any run fails its checks.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    wall_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    steal = re.search(r"vcpu steal during timed loop: ([0-9.]+)%", proc.stderr)
    return (json.loads(lines[-1]), float(steal.group(1)) if steal else None,
            wall_s)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def write(path, record):
    if path:
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


def study(workloads, seeds, seconds, bounds, label, out, checkpoint):
    """One set of runs: every workload once per seed, recorded into `out`;
    `checkpoint` is called after each workload. Returns True when a run
    failed its checks."""
    failed = False
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, steal, wall_s = run_once(workload, seed, seconds, 0)
            failed |= not result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "steal_pct": steal, "wall_s": wall_s,
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
        metrics = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name] for r in runs])
            s["bound"] = bounds.get(name)
            metrics[name] = s
            flag = "  OVER BOUND" if s["spread"] > s["bound"] else ""
            print(f"{label} {workload:13s} {name:15s} "
                  f"median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        print(f"{label} {workload:13s} vCPU steal % per run: "
              f"{[r['steal_pct'] for r in runs]}", flush=True)
        out[workload] = {"runs": runs, "metrics": metrics}
        checkpoint()
    return failed


def drift(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative: better)."""
    a, b = first["median"], second["median"]
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    worse = (b - a) if better == "lower" else (a - b)
    return worse / abs(a)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--sets", type=int, default=2,
                    help="sets of runs over the same seeds, one after another")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "cpu_model": cpu_model(), "system": platform.system()},
              "seconds": args.seconds, "seeds": args.seeds, "sets": []}
    failed = False
    for i in range(args.sets):
        workloads_record = {}
        record["sets"].append({"workloads": workloads_record})
        failed |= study(workloads, parse_seeds(args.seeds), args.seconds,
                        bounds, f"set{i + 1}", workloads_record,
                        lambda: write(args.out, record))
    if args.sets >= 2:
        record["drift"] = {}
        first, last = record["sets"][0], record["sets"][-1]
        for workload in workloads:
            d = {}
            for name, s in first["workloads"][workload]["metrics"].items():
                worse = drift(s, last["workloads"][workload]["metrics"][name],
                              better[name])
                d[name] = {"worse_frac": worse, "bound": bounds[name]}
                flag = "  OVER BOUND" if worse > bounds[name] else ""
                print(f"drift {workload:13s} {name:15s} last set worse by "
                      f"{worse:+.4f} (bound {bounds[name]}){flag}")
            record["drift"][workload] = d
    write(args.out, record)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
