"""The exact-count ledger: deterministic work counts of the built-in problems.

Every count here is read off what a solve already keeps: the labels and
terms of each level, the steps of the compiled plans, and the attempted,
accepted and right-hand-side counts of a ``DenseSolution``.  Nothing is
timed and nothing is wrapped, so the counts are the same on any host.

Run ``python3 tests/count_ledger.py`` from the repository root to rewrite
``tests/golden/counts.json``; ``test_count_ledger.py`` recomputes the counts
and compares them with the file exactly.  A change that moves a count
rewrites the file and names each count that moved, as for any golden file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

LEDGER = Path(__file__).with_name("golden") / "counts.json"

# (problem, order, solve the chain): the built-ins at their default orders
# and at the orders the benchmark builds
BUILDS = (
    ("linear_example", 4, True),
    ("memristor", 3, True),
    ("worked_example", 3, True),
    ("worked_example", 4, True),
    ("worked_example", 5, False),
    ("worked_example", 6, True),
    ("worked_example", 7, False),
)
# the benchmark's memristor grid: chain knots and reference sample times
MEMRISTOR_GRID = np.linspace(0.0, 3.0, 129)
REFERENCE_OMEGA = 100.0


def _solution_counts(solution):
    return {
        "attempted": solution.n_steps,
        "accepted": solution.n_accepted,
        "rhs": solution.n_rhs_evals,
    }


def _plan_counts(plan, segments):
    """Steps of the plan's first ``segments`` segments, and the field
    points and differential applications among them."""
    from oscillode.plan import POINT, SUM

    steps = [step for segment in plan.segments[:segments] for step in segment]
    return {
        "steps": len(steps),
        "points": sum(step[0] == POINT for step in steps),
        "applies": sum(len(step[3]) for step in steps if step[0] == SUM),
    }


def ledger():
    """Every count of the ledger, as the JSON file holds it."""
    from oscillode.expansion import _ChainSystem, build_expansion, solve_nonoscillatory_chain
    from oscillode.harness import _rk_reference
    from oscillode.problems import get_problem

    out = {}
    for name, order, solve in BUILDS:
        registered = get_problem(name)
        expansion = build_expansion(registered.problem, order=order)
        levels = range(order + 1)
        entry = {
            "labels": [len(expansion.labels_at(r)) for r in levels],
            "terms": [
                sum(len(node.terms) for (r, _), node in expansion.nodes.items() if r == level)
                for level in levels
            ],
        }
        if solve:
            solve_nonoscillatory_chain(expansion, registered.t_end)
            entry["chain"] = _solution_counts(expansion.chain_solution)
            entry["plan per chain rhs"] = _plan_counts(_ChainSystem(expansion).plan, order + 1)
            entry["plan per table time"] = _plan_counts(expansion._levels_plan, order + 1)
        out[f"{name} r={order}"] = entry

    memristor = get_problem("memristor")
    expansion = build_expansion(memristor.problem, order=3)
    solve_nonoscillatory_chain(expansion, memristor.t_end, knots=MEMRISTOR_GRID)
    out["memristor r=3"]["chain on 129 knots"] = _solution_counts(expansion.chain_solution)
    _, solution = _rk_reference(memristor, REFERENCE_OMEGA, MEMRISTOR_GRID, 1e-10)
    out["memristor reference"] = {
        "omega": REFERENCE_OMEGA,
        "grid": len(MEMRISTOR_GRID),
        **_solution_counts(solution),
    }
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    LEDGER.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}")
