"""Reduced-size self-test of the benchmark runner.

    python3 perfbench/selftest.py

Runs every workload at its small size (fewer points, lower order) once
untraced and twice traced, and fails unless:

- every end-to-end and per-layer metric that ``BENCHMARK.json`` declares is
  printed by name with its unit, and the JSON line carries the same set;
- every operation and correctness gate passes;
- every count repeats exactly between the two traced runs;
- the spans written by a traced run account for its traced task time: the
  remainder outside every root span is reported and stays under 2 %.
"""

from __future__ import annotations

import io
import json
import re
import sys

import numpy as np

import run
from workloads import WORKLOADS

SEED = 1
UNACCOUNTED_LIMIT = 0.02
METRIC_LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def parse(text):
    """(printed metrics {name: (value, unit)}, JSON result) of one run."""
    lines = text.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match[1]] = (match[2], match[3])
    return printed, json.loads(lines[-1])


def one_run(workload, trace):
    buf = io.StringIO()
    run.run(workload, SEED, 1, trace, small=True, out=buf)
    return parse(buf.getvalue())


def check_printed(problems, label, printed, result, units):
    for name, unit in units.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{label}: {name} not printed with unit {unit}")
    if set(result["metrics"]) != set(units):
        problems.append(f"{label}: JSON metrics differ from the declared set")
    for name, entry in result["metrics"].items():
        if entry["unit"] != units.get(name):
            problems.append(f"{label}: JSON unit of {name} is {entry['unit']}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")


def root_span_seconds(workload):
    """Summed duration of the root spans in the spans file of a traced run."""
    data = np.load(run.OUT_DIR / f"{workload}_small_spans.npz")
    roots = data["parent"] < 0
    return float((data["end"][roots] - data["start"][roots]).sum())


def main():
    problems = []
    end_to_end, per_layer = run.declared_metrics()
    for workload in WORKLOADS:
        printed, result = one_run(workload, 0)
        check_printed(problems, f"{workload} trace 0", printed, result, end_to_end)

        traced = [one_run(workload, 1) for _ in range(2)]
        for k, (printed, result) in enumerate(traced):
            check_printed(problems, f"{workload} trace 1 #{k}", printed, result, per_layer)
        counts = [
            {n: e["value"] for n, e in result["metrics"].items() if e["unit"] == "count"}
            for _, result in traced
        ]
        if counts[0] != counts[1]:
            diff = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            problems.append(f"{workload}: counts differ between traced runs: {diff}")

        task = float(traced[1][0]["time_to_solution_s.traced"][0])
        remainder = task - root_span_seconds(workload)
        print(f"{workload}: traced task {task:.4f} s, "
              f"unaccounted {remainder:.6f} s ({remainder / task:.2%})")
        if not 0.0 <= remainder <= UNACCOUNTED_LIMIT * task:
            problems.append(f"{workload}: unaccounted {remainder:.4f} s of {task:.4f} s")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
