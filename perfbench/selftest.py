"""Self-test of the benchmark on tiny streams (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

For every workload, untraced and traced, it checks that the run is correct,
that the result carries exactly the metrics ``BENCHMARK.json`` names, each
with its unit, and — on the inline workloads, where the planner runs in the
traced process — that the named layers' self time accounts for at least 90%
of the traced batches' wall time and sums to within 10% of the traced
replays' milliseconds per query.
"""

from __future__ import annotations

import json
import sys

import run

TINY_QUERIES = {"explore": 10, "commute": 20, "rush_pooled": 40}


def check(workload: str, trace: bool, spec: dict) -> list:
    report = run.measure(workload, seed=7, seconds=0.0, trace=trace, queries=TINY_QUERIES[workload])
    problems = [f"{workload}: {problem}" for problem in report["problems"]]
    if not report["correct"] or report["failed"]:
        problems.append(f"{workload}: run not correct ({report['failed']} failed)")
    listed = spec["per_layer" if trace else "end_to_end"]
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    values = report["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in listed}
    if expected != units or set(values) != set(units):
        missing = set(expected) ^ set(values)
        problems.append(f"{workload}: metrics differ from BENCHMARK.json: {sorted(missing)}")
    for name, unit in expected.items():
        if units.get(name) != unit:
            problems.append(f"{workload}: {name} has unit {units.get(name)!r}, BENCHMARK.json says {unit!r}")
    if trace and run.WORKLOADS[workload].backend == "inline":
        layers = sum(values[f"{layer}.self_ms_per_q"] for layer in run.LAYERS)
        batch = report["trace_batch_ms_per_q"]
        wall = report["trace_wall_ms_per_q"]
        if layers < 0.9 * batch:
            problems.append(f"{workload}: layers cover {layers:.3f} of {batch:.3f} batch ms/q (< 90%)")
        if abs(layers - wall) > 0.1 * wall:
            problems.append(f"{workload}: layers sum {layers:.3f} ms/q vs {wall:.3f} ms/q wall (> 10% apart)")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            found = check(workload, trace, spec)
            print(f"{workload:12s} trace={int(trace)} {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
