#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/sweep.py --runs 10                  # every workload
    python3 perfbench/sweep.py --runs 5 --workloads grid-main
    python3 perfbench/sweep.py --runs 10 --sets 2         # two interleaved sets
    python3 perfbench/sweep.py --runs 10 --traced --baseline perfbench/baseline.json

Each run is the command from BENCHMARK.json with --workload, --seed, --seconds
and --trace. For every workload and end-to-end metric the sweep prints the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. It flags a
spread above the metric's bound and, with --sets 2, a second-set median worse
than the first by more than the bound. It fails on either, if any run is
incorrect, or if a seed-1 run's digest does not match its pin.

With --baseline FILE it writes the samples, medians and quartiles, the machine
(nproc, go version, GOMAXPROCS) and, with --traced, one traced seed-1 run per
workload with its layer x phase table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cfg, workload, seed, trace):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {"elapsed_s": elapsed, "stderr": proc.stderr}
    for line in lines[:-1]:
        if line.startswith("machine: "):
            info["machine"] = line[len("machine: "):]
        elif line.startswith("digest "):
            info["digest"] = line.split()[3]
            info["verdict"] = line.split()[-1]
    return result, info


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def worse(metric, base, new):
    """Share by which new is worse than base."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS per workload and set")
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2), help="interleaved sets of runs")
    ap.add_argument("--traced", action="store_true", help="add one traced seed-1 run per workload")
    ap.add_argument("--baseline", help="write the results to this JSON file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    names = args.workloads or [w["name"] for w in cfg["workloads"]]
    seeds = list(range(1, args.runs + 1))

    samples = {(s, w): [] for s in range(args.sets) for w in names}
    digests = {w: {} for w in names}
    machine = None
    failures = []
    # A workload's runs follow one another, so its spread spans minutes of
    # the host's drift rather than the whole sweep's.
    for w in names:
        for seed in seeds:
            # Alternate which set goes first, so neither owns the warmer slot.
            order = range(args.sets) if seed % 2 else reversed(range(args.sets))
            for s in order:
                result, info = run_once(cfg, w, seed, 0)
                machine = info.get("machine", machine)
                digests[w][str(seed)] = info.get("digest")
                if not result["correct"] or result["failed"]:
                    failures.append(f"{w} seed {seed}: {result['failed']}/{result['attempted']} failed")
                if seed == 1 and info.get("verdict") != "pinned-match":
                    failures.append(f"{w} seed 1: digest {info.get('verdict')}")
                samples[(s, w)].append(result)
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items()))
                print(f"set {s} {w} seed {seed}: {info['elapsed_s']:.1f}s attempted={result['attempted']} {vals}",
                      flush=True)

    report = {"machine": {"nproc": os.cpu_count(), "go": subprocess.run(
        ["go", "version"], capture_output=True, text=True).stdout.strip(), "benchmark": machine},
        "run_seconds": cfg["run_seconds"], "seeds": seeds, "workloads": {}}
    problems = []
    print()
    for w in names:
        entry = {"digests": digests[w], "end_to_end": {}}
        for m in cfg["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in samples[(s, w)]]
                med, q1, q3, sp = spread(vals)
                per_set.append(med)
                flag = ""
                if sp > bound:
                    flag = "  OVER BOUND"
                    problems.append(f"{w} {name} set {s}: spread {sp:.3f} > bound {bound}")
                elif sp > bound / 3:
                    flag = "  over bound/3"
                print(f"{w:16s} {name:20s} set {s}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                      f"spread {sp:.3f} (bound {bound}){flag}")
                entry["end_to_end"].setdefault(name, []).append(
                    {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": sp})
            if args.sets == 2:
                d = worse(m, per_set[0], per_set[1])
                print(f"{w:16s} {name:20s} second median worse by {d:+.3f} (bound {bound})")
                if d > bound:
                    problems.append(f"{w} {name}: second median worse by {d:.3f} > {bound}")
        if args.traced:
            result, info = run_once(cfg, w, 1, 1)
            if not result["correct"]:
                failures.append(f"{w} traced seed 1: {result['failed']}/{result['attempted']} failed")
            entry["traced_seed1"] = {k: v["value"] for k, v in sorted(result["metrics"].items())}
            entry["layer_phase_table"] = [l for l in info["stderr"].splitlines() if l.startswith(("|", w))]
            print("\n".join(entry["layer_phase_table"]))
        report["workloads"][w] = entry

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    for p in failures + problems:
        print("FAIL:" if p in failures else "SPREAD:", p)
    sys.exit(1 if failures or problems else 0)


if __name__ == "__main__":
    main()
