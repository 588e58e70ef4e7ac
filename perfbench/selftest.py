#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and passes its gate, that every metric
named in BENCHMARK.json is printed with its unit and direction, that
traced and untraced passes give identical answers, that the tracer
restores every gsheaf function, that the generators are deterministic
per seed, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORK_DIR, WORKLOADS  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(cwd: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec(bench: dict, notes: dict) -> None:
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check(e2e == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layer == {n: (u, b) for n, u, b in run.PER_LAYER},
          "BENCHMARK.json per_layer matches run.PER_LAYER")
    check([w["name"] for w in bench["workloads"]] == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")
    missing = sorted(set(layer) - set(notes["per_layer"]))
    check(not missing, f"metrics.json predicts every per-layer metric {missing}")


def test_cli(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        spec = {m["name"]: m for m in bench[key]}
        for name in sorted(WORKLOADS):
            proc = run_cli(ROOT, "--workload", name, "--seed", "1",
                           "--seconds", "1", "--trace", str(trace), "--tiny")
            lines = proc.stdout.strip().splitlines()
            what = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{what} exits 0 {proc.stderr[-300:]}")
            if proc.returncode:
                continue
            result = json.loads(lines[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{what} result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what} is correct")
            check(set(result["metrics"]) == set(spec),
                  f"{what} reports exactly the {key} metrics")
            shown = {}
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 5 and parts[1] in spec:
                    shown[parts[1]] = (parts[3], parts[4])
            check(all(shown.get(n) == (m["unit"], m["better"])
                      for n, m in spec.items()),
                  f"{what} prints every metric with unit and direction")


def snapshot() -> dict:
    """Every attribute of every gsheaf module and gsheaf class."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gsheaf"
                               or modname.startswith("gsheaf.")):
            continue
        for attr, value in vars(mod).items():
            snap[modname, attr] = value
            if isinstance(value, type) and value.__module__ == modname:
                for k, v in vars(value).items():
                    snap[modname, attr, k] = v
    return snap


def test_tracer_in_process() -> None:
    gs = run.import_gsheaf()
    for name, cls in sorted(WORKLOADS.items()):
        wl = cls(1, tiny=True)
        wl.setup(gs)
        try:
            plain = wl.summarize(wl.run_pass())
            before = snapshot()
            tr = tracing.Tracer()
            tr.install()
            # a name copied by "from .convalg import build_conv_algebra"
            # must be swapped too
            swapped = (gs.fixtures.build_conv_algebra
                       is gs.convalg.build_conv_algebra
                       is not before["gsheaf.convalg", "build_conv_algebra"])
            wl.begin_item = tr.begin_item
            try:
                traced = wl.summarize(wl.run_pass())
            finally:
                tr.uninstall()
            after = snapshot()
        finally:
            wl.cleanup()
        check(swapped and tr.spans, f"{name}: the tracer wraps and records")
        check(plain.digest == traced.digest and plain.failed == traced.failed == 0,
              f"{name}: traced and untraced answers are identical")
        changed = [k for k in before if after.get(k) is not before[k]]
        check(not changed and set(after) == set(before),
              f"{name}: every gsheaf function is restored {changed[:3]}")


def test_generators(notes: dict) -> None:
    held_out = notes["held_out_seed"]
    for name in ("lattice", "rational"):
        digests = {}
        for seed in (1, 1, 2, held_out):
            wl = WORKLOADS[name](seed)
            wl.setup(run.import_gsheaf())
            digests.setdefault(seed, []).append(wl.inputs_digest())
            wl.cleanup()
        check(digests[1][0] == digests[1][1], f"{name}: same seed, same inputs")
        check(len({digests[1][0], digests[2][0], digests[held_out][0]}) == 3,
              f"{name}: other seeds, other inputs")


def test_without_sources() -> None:
    bare = os.path.join(ROOT, WORK_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli(bare, "--workload", "catalog", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK_DIR), ignore_errors=True)


def main() -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    notes = load_json(os.path.join(HERE, "metrics.json"))
    sys.path.insert(0, run.SRC)
    test_spec(bench, notes)
    test_tracer_in_process()
    test_generators(notes)
    test_cli(bench)
    test_without_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
