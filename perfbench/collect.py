#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload lattice --seeds 1-10 --seconds 25
    python3 perfbench/collect.py --workload all --seeds 1-10 --out baseline.json

Runs are sequential, one process at a time.  For every metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the inter-quartile distance as a share of the median, next
to the metric's regression bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "trace": args.trace,
              "workloads": {}}
    for workload in workloads:
        results = []
        for seed in seeds:
            res = run_once(workload, seed, seconds, args.trace)
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            results.append(res)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        summary = summarize(results, bounds)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": summary,
        }
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" \
                    and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"{workload:9s} {name:24s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={s['bound']}{flag}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
