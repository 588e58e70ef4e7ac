#!/usr/bin/env python3
"""gsheaf benchmark: one closed-loop workload, timed, checked, reported.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 35 --trace 0

The workload's inputs come from the seed.  Set-up (a fresh import of
gsheaf plus building every input) is repeated SETUP_REPS times and its
median reported.  Then passes over the workload's items run back to back
in this one process, one item at a time, while the next pass would end
less than half a pass after ``--seconds``.  Answers are checked outside the timed region.

Lines starting with '#' are for people: each metric with its unit and
better direction.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the first half of the budget
untraced and the second half under the outside-in tracer, and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import SKIP_REASONS, WORKLOADS  # noqa: E402

SETUP_REPS = 7
GSHEAF_MODULES = ("errors", "fields", "linalg", "exactalg", "groupoid",
                  "sheaf", "convalg", "reports", "induction", "isgring",
                  "schemas", "fixtures", "cli")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "item_ms_p50": ("ms", "lower"),
    "item_ms_tail": ("ms", "lower"),
    "decided_checks": ("count", "higher"),
    "decided_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# per-layer metrics: (name, unit, better)
_BUSY = [
    "exactalg.simplicity_witness", "exactalg.enumerate_two_sided_ideals",
    "induction.verify_effros_hahn", "induction.annihilator_induced",
    "exactalg.jacobson_radical", "exactalg.module_simplicity_witness",
    "isgring.siri_data", "isgring.skew_isg_ring",
    "groupoid.bisection_semigroup", "isgring.verify_partial_crossed",
    "exactalg.quotient_algebra", "exactalg.check_ring_iso",
    "convalg.build_conv_algebra", "exactalg.validate_algebra",
    "sheaf.require_valid_sheaf", "convalg.centralizer_of_diagonal",
    "schemas.load_document", "schemas.dump_json",
]
_CALLS = ["exactalg.simplicity_witness", "exactalg.enumerate_two_sided_ideals",
          "exactalg.ideal_generated"]
_REPEATS = ["exactalg.simplicity_witness", "exactalg.enumerate_two_sided_ideals",
            "isgring.siri_data", "convalg.build_conv_algebra"]
PER_LAYER = (
    [(f"{n}.busy_s", "s", "lower") for n in _BUSY]
    + [(f"{n}.calls", "count", "lower") for n in _CALLS]
    + [(f"{n}.repeat_ratio", "ratio", "lower") for n in _REPEATS]
    + [("exactalg.projective_points.yielded", "count", "lower"),
       ("exactalg.ideal_generated.distinct_ratio", "ratio", "higher"),
       ("isgring.skew_isg_ring.kept_ratio", "ratio", "higher"),
       ("groupoid.bisection_semigroup.members", "count", "lower"),
       ("schemas.dump_json.bytes", "bytes", "lower"),
       ("linalg.span_add.calls", "count", "lower"),
       ("linalg.span_add.grew_ratio", "ratio", "higher"),
       ("linalg.mat_vec.calls", "count", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in tracing.LAYERS]
    + [("bench.self_s", "s", "lower")]
    + [(f"skips.{r}", "count", "lower") for r in SKIP_REASONS]
    + [("tracer.overhead", "ratio", "lower"),
       ("failed_frac", "ratio", "lower")]
)


def import_gsheaf():
    """A fresh import of every gsheaf module, as a namespace."""
    for name in [k for k in sys.modules
                 if k == "gsheaf" or k.startswith("gsheaf.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"gsheaf.{m}") for m in GSHEAF_MODULES})


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1).

    A weighted mean of the order statistics with Beta((n+1)q, (n+1)(1-q))
    weights.  Unlike the single order statistic it moves smoothly when
    samples of neighbouring items trade places, which this shared
    machine's speed swings make them do from run to run.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


class Measurement:
    """Passes run under one budget: times, per-item times, summaries."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.item_s: list[float] = []
        self.by_pass: list[list[float]] = []   # item times, in item order
        self.summaries: list = []
        self.pending: list = []   # passes waiting to be summarized


def measure(wl, budget: float, summarize_now: bool = True) -> Measurement:
    """Run passes while the next one would end less than half a pass
    after the budget; at least one.  With summarize_now off the passes
    wait in ``pending``: the tracer must be off while the gate runs."""
    m = Measurement()
    while True:
        gc.collect()  # every pass starts from the same collector state
        p = wl.run_pass()
        m.pass_s.append(p.seconds)
        m.item_s.extend(p.items)
        m.by_pass.append(p.items)
        if summarize_now:
            m.summaries.append(wl.summarize(p))
        else:
            m.pending.append(p)
        if sum(m.pass_s) + statistics.median(m.pass_s) / 2 > budget:
            break
    return m


def typical_item_ms(by_pass: list[list[float]]) -> float:
    """Median item latency: the Harrell-Davis median over items of each
    item's mean latency over the run's passes.

    Items keep their order within a run, so each item's mean averages
    the slow and fast windows of the machine its passes fell in; the
    Harrell-Davis weights then spread over the few items of middling
    cost instead of resting on the one that happens to sit in the middle.
    """
    return 1000 * quantile([statistics.fmean(times)
                            for times in zip(*by_pass)], 0.5)


def end_to_end(wl, setup_s: list[float], m: Measurement) -> dict:
    pass_s = quantile(m.pass_s, 0.5)
    decided = statistics.median(s.decided for s in m.summaries)
    items_ms = [t * 1000 for t in m.item_s]
    return {
        "setup_s": quantile(setup_s, 0.5),
        "pass_s": pass_s,
        "item_ms_p50": typical_item_ms(m.by_pass),
        "item_ms_tail": quantile(items_ms, wl.tail_percentile / 100),
        "decided_checks": decided,
        "decided_per_s": decided / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tr: tracing.Tracer, traced: Measurement,
              untraced: Measurement, failed_frac: float) -> dict:
    n = len(traced.pass_s)
    c = tr.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in _BUSY:
        out[f"{name}.busy_s"] = tr.busy[name] / n
    for name in _CALLS:
        out[f"{name}.calls"] = tr.calls[name] / n
    for name in _REPEATS:
        out[f"{name}.repeat_ratio"] = ratio(c.get(f"{name}.repeats", 0),
                                            tr.calls[name])
    out["exactalg.projective_points.yielded"] = \
        c["exactalg.projective_points.yielded"] / n
    out["exactalg.ideal_generated.distinct_ratio"] = ratio(
        c.get("exactalg.ideal_generated.distinct", 0),
        tr.calls["exactalg.ideal_generated"])
    out["isgring.skew_isg_ring.kept_ratio"] = ratio(
        c.get("isgring.skew_isg_ring.quotient_dim", 0),
        c.get("isgring.skew_isg_ring.L_dim", 0))
    out["groupoid.bisection_semigroup.members"] = \
        c.get("groupoid.bisection_semigroup.members", 0) / n
    out["schemas.dump_json.bytes"] = c.get("schemas.dump_json.bytes", 0) / n
    out["linalg.span_add.calls"] = c["linalg.span_add.calls"] / n
    out["linalg.span_add.grew_ratio"] = ratio(c["linalg.span_add.grew"],
                                              c["linalg.span_add.calls"])
    out["linalg.mat_vec.calls"] = c["linalg.mat_vec.calls"] / n
    for layer, secs in tr.self_times().items():
        out[f"{layer}.self_s"] = secs / n
    out["bench.self_s"] = (sum(traced.pass_s) - tr.root_time()) / n
    for reason in SKIP_REASONS:
        out[f"skips.{reason}"] = sum(s.skips[reason]
                                     for s in traced.summaries) / n
    out["tracer.overhead"] = (quantile(traced.pass_s, 0.5)
                              / quantile(untraced.pass_s, 0.5))
    out["failed_frac"] = failed_frac
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small items per workload, for the self-test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gsheaf", "__init__.py")):
        print(f"error: no gsheaf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cls = WORKLOADS[args.workload]
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        gs = import_gsheaf()
        wl = cls(args.seed, args.tiny)
        wl.setup(gs)
        setup_s.append(time.perf_counter() - t0)
    try:
        inputs = wl.inputs_digest()
        if args.trace:
            untraced = measure(wl, args.seconds / 2)
            tr = tracing.Tracer()
            tr.install()
            wl.begin_item = tr.begin_item
            try:
                traced = measure(wl, args.seconds / 2, summarize_now=False)
            finally:
                tr.uninstall()
            traced.summaries = [wl.summarize(p) for p in traced.pending]
            runs = [untraced, traced]
        else:
            runs = [measure(wl, args.seconds)]
        summaries = [s for m in runs for s in m.summaries]
        wl.check(summaries)
    finally:
        wl.cleanup()

    attempted = sum(s.attempted for s in summaries)
    failed = sum(s.failed for s in summaries)
    failed_frac = failed / attempted if attempted else 1.0
    if args.trace:
        metrics = per_layer(tr, traced, untraced, failed_frac)
        spec = {name: (unit, better) for name, unit, better in PER_LAYER}
    else:
        metrics = end_to_end(wl, setup_s, runs[0])
        spec = END_TO_END

    m = runs[-1]
    print(f"# workload={args.workload} seed={args.seed} inputs={inputs}")
    print(f"# passes={len(m.pass_s)} items={len(m.item_s)} "
          f"tail=p{wl.tail_percentile} "
          f"beyond_tail={len(m.item_s) - math.ceil(wl.tail_percentile / 100 * len(m.item_s))} "
          f"answers={summaries[0].digest if summaries else ''}")
    print(f"# attempted={attempted} failed={failed} failed_frac={failed_frac}")
    for s in summaries:
        for problem in s.problems:
            print(f"# problem: {problem}")
    for name, value in metrics.items():
        unit, better = spec[name]
        print(f"# {name:48s} {value:>16.6f} {unit:6s} {better}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": spec[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
