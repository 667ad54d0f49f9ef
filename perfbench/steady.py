#!/usr/bin/env python3
"""Steadiness check and smoke test for the benchmark.

Run from the root of the repository.

  python3 perfbench/steady.py --workload tpch-serve --runs 5
      runs the workload 5 times, each with another seed, and prints for every
      end-to-end metric the median, the quartile spread as a share of the
      median, and the metric's bound from BENCHMARK.json. A spread at or above
      the bound fails; one above a third of the bound is flagged.

  python3 perfbench/steady.py --smoke
      runs every workload briefly with --trace 0 and --trace 1 and checks that
      each run succeeds and emits every metric BENCHMARK.json names.

  python3 perfbench/steady.py --bare
      copies BENCHMARK.json and the benchmark's own files into an empty
      directory and checks that the benchmark fails there without printing a
      result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SPEC = json.load(open("BENCHMARK.json"))


def run(workload, seed, seconds, trace, cwd="."):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result, p


def steady(workload, runs, first_seed):
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    for i in range(runs):
        seed = first_seed + i
        code, res, p = run(workload, seed, SPEC["run_seconds"], 0)
        if code != 0 or res is None:
            sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
            print(f"{workload} seed {seed}: exit {code}, correct={res and res['correct']}")
            if res is None:
                return False
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={res['metrics'][n]['value']:.4g}" for n in values), flush=True)
    ok = True
    print(f"\n{workload}: {runs} runs")
    print(f"{'metric':<20} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in SPEC["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("inf")
        verdict = "ok"
        if m["name"] != "setup_s" and spread >= m["bound"]:
            verdict, ok = "FAIL", False
        elif spread > m["bound"] / 3:
            verdict = "wide"
        print(f"{m['name']:<20} {med:>12.4f} {spread:>8.3f} {m['bound']:>6.2f}  {m['unit']:<5} {verdict}")
    return ok


def smoke():
    ok = True
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res, p = run(w["name"], 1, 2, trace)
            missing = [m["name"] for m in SPEC[key] if res is None or m["name"] not in res["metrics"]]
            good = code == 0 and res is not None and res["correct"] and res["attempted"] >= 1 and not missing
            print(f"{w['name']} trace={trace}: exit {code}, missing {missing or 'none'}: {'ok' if good else 'FAIL'}")
            if not good:
                sys.stderr.write(p.stderr[-2000:])
                ok = False
    return ok


def bare():
    os.makedirs(".bench_build", exist_ok=True)
    d = tempfile.mkdtemp(prefix="bare-", dir=".bench_build")
    try:
        shutil.copy("BENCHMARK.json", d)
        for path in SPEC["paths"]:
            shutil.copytree(path, os.path.join(d, path))
        code, res, p = run(SPEC["workloads"][0]["name"], 1, 1, 0, cwd=d)
        good = code != 0 and res is None
        print(f"bare directory: exit {code}, result printed: {res is not None}: {'ok' if good else 'FAIL'}")
        return good
    finally:
        shutil.rmtree(d)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bare", action="store_true")
    a = ap.parse_args()
    if a.smoke:
        ok = smoke()
    elif a.bare:
        ok = bare()
    elif a.workload:
        ok = steady(a.workload, a.runs, a.seed)
    else:
        ap.error("give --workload, --smoke or --bare")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
