"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
interleaved; without ``-s`` they appear for failing criteria only.
"""

import itertools
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oscillode.deriv_engine import validate_field
from oscillode.expansion import build_expansion, solve_nonoscillatory_chain
from oscillode.freq_algebra import (
    BaseFrequency,
    FrequencyBasis,
    build_index_chain,
    canonicalize,
    index_table_records,
    rho,
)
from oscillode.harness import fit_slopes, reference_values, run_error_study
from oscillode.linear_closed_form import linear_coefficients
from oscillode.problems import get_problem, memristor_field

SQRT2 = math.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"


def _verdict(number, description, ok, detail=""):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def linear_setup():
    registered = get_problem("linear_example")
    expansion = build_expansion(registered.problem, order=4)
    grid = np.linspace(0.0, 5.0, 513)
    t0 = time.perf_counter()
    solve_nonoscillatory_chain(
        expansion, 5.0, tol=3e-15, knots=grid
    )
    return registered, expansion, grid, time.perf_counter() - t0


@pytest.fixture(scope="module")
def memristor_setup(tmp_path_factory):
    registered = get_problem("memristor")
    expansion = build_expansion(registered.problem, order=3)
    grid = np.linspace(0.0, 3.0, 513)
    solve_nonoscillatory_chain(expansion, 3.0, knots=grid)
    cache = tmp_path_factory.mktemp("refcache")
    return registered, expansion, grid, cache


def test_criterion_1_reference_table(capsys):
    started = time.perf_counter()
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    kappas = [
        BaseFrequency(basis, coords=(1, 0)),
        BaseFrequency(basis, coords=(0, 1)),
        BaseFrequency(basis, coords=(-1, -1)),
    ]
    u4 = build_index_chain(basis, kappas, 4)[4]
    rows = index_table_records(u4, basis, kappas)

    expected = {
        (): ("0", 0.0),
        (1,): ("1", 1.0),
        (2,): ("sqrt(2)", SQRT2),
        (3,): ("-1-sqrt(2)", -1.0 - SQRT2),
        (1, 1): ("2", 2.0),
        (1, 2): ("1+sqrt(2)", 1.0 + SQRT2),
        (1, 3): ("-sqrt(2)", -SQRT2),
        (2, 2): ("2*sqrt(2)", 2.0 * SQRT2),
        (2, 3): ("-1", -1.0),
        (3, 3): ("-2-2*sqrt(2)", -2.0 - 2.0 * SQRT2),
        (1, 1, 1): ("3", 3.0),
        (1, 1, 2): ("2+sqrt(2)", 2.0 + SQRT2),
        (1, 1, 3): ("1-sqrt(2)", 1.0 - SQRT2),
        (1, 2, 2): ("1+2*sqrt(2)", 1.0 + 2.0 * SQRT2),
        (1, 3, 3): ("-1-2*sqrt(2)", -1.0 - 2.0 * SQRT2),
        (2, 2, 2): ("3*sqrt(2)", 3.0 * SQRT2),
        (2, 2, 3): ("-1+sqrt(2)", -1.0 + SQRT2),
        (2, 3, 3): ("-2-sqrt(2)", -2.0 - SQRT2),
        (3, 3, 3): ("-3-3*sqrt(2)", -3.0 - 3.0 * SQRT2),
    }
    ok = len(rows) == 19
    detail = f"{len(rows)} labels"
    for label, sig_str, sig_float, records in rows:
        tup = label.canonical_tuple
        want_str, want_float = expected[tup]
        if sig_str != want_str or abs(sig_float - want_float) > 1e-12:
            ok = False
            detail = f"label {tup}: {sig_str} vs {want_str}"
            break
        for rec in records:
            if rec.rho != brute_force_rho(label, rec.source_tuple, basis, kappas):
                ok = False
                detail = f"rho mismatch at {tup}/{rec.source_tuple}"
                break

    # canonical known entries
    by_tuple = {lab.canonical_tuple: recs for lab, _, _, recs in rows}
    rho_12 = {rec.source_tuple: rec.rho for rec in by_tuple[(1, 2)]}
    ok = ok and rho_12.get((0, 1, 2)) == 6
    rho_0 = {rec.source_tuple: rec.rho for rec in by_tuple[()]}
    ok = ok and rho_0.get((0, 0, 0)) == 1 and rho_0.get((1, 2, 3)) == 6

    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _verdict(
            1,
            "19-label index table with reference frequencies and multiplicities",
            ok,
            detail + f", {elapsed:.2f}s",
        )


def _kappa_sum(perm, basis, kappas):
    """Frequency of a tuple of base indices (0 adds nothing), as ``Fraction`` sums."""
    sigma = (Fraction(0),) * basis.dimension
    for m in perm:
        if m != 0:
            sigma = tuple(x + y for x, y in zip(sigma, kappas[m - 1].sigma))
    return sigma


def brute_force_rho(target, source_tuple, basis, kappas):
    count = 0
    for perm in set(itertools.permutations(source_tuple)):
        if _kappa_sum(perm, basis, kappas) == target.sigma:
            count += 1
    return count


def test_criterion_2_memristor_index_exclusions(capsys):
    registered = get_problem("memristor")
    problem = registered.problem
    u3 = build_index_chain(problem.basis, problem.kappas, 3)[3]
    tuples = [lab.canonical_tuple for lab in u3]
    ok = (
        len(tuples) == 13
        and (1, 2) not in tuples
        and (3, 4) not in tuples
        and all(t in tuples for t in [(), (1,), (2,), (3,), (4,)])
    )
    with capsys.disabled():
        _verdict(2, "13-label level-3 set without the zero-sum pairs", ok,
                 f"{len(tuples)} labels")


def test_criterion_3_initial_condition_identity(capsys, linear_setup, memristor_setup):
    _, linear_ex, _, _ = linear_setup
    _, mem_ex, _, _ = memristor_setup
    ok = True
    detail = []
    for name, expansion in (("linear", linear_ex), ("memristor", mem_ex)):
        for r in (1, 2, 3):
            total = expansion.coefficient_value(r, (), 0.0).copy()
            for lab in expansion.labels_at(r):
                if not lab.is_zero:
                    total += expansion.coefficient_value(r, lab.canonical_tuple, 0.0)
            worst = float(np.max(np.abs(total)))
            detail.append(f"{name} r={r}: {worst:.1e}")
            ok = ok and worst <= 1e-12

    p10 = mem_ex.coefficient_value(1, (), 0.0)
    expect5 = 0.5 * (2.0 + SQRT2)  # (A b / 2)(2 + sqrt(2)), A b = 1
    ok = ok and abs(p10[4] - expect5) <= 1e-12 and np.allclose(p10[:4], 0.0, atol=1e-13)
    p20 = mem_ex.coefficient_value(2, (), 0.0)
    ok = ok and float(np.max(np.abs(p20))) <= 1e-12
    with capsys.disabled():
        _verdict(3, "origin sums cancel level by level; closed-form starts match",
                 ok, "; ".join(detail[:3]) + "; ...")


def test_criterion_4_linear_oracle_equivalence(capsys, linear_setup):
    registered, expansion, grid, solve_seconds = linear_setup
    started = time.perf_counter()
    table = linear_coefficients(registered.linear, 4)
    worst = 0.0
    for r in range(0, 5):
        for lab in expansion.labels_at(r):
            tup = lab.canonical_tuple
            for t in grid[::8]:
                got = expansion.coefficient_value(r, tup, float(t))
                if len(tup) <= 1:
                    m = 0 if tup == () else tup[0]
                    want = table.value(r, m, float(t))
                else:
                    # multi-index labels carry no linear contribution
                    want = np.zeros(registered.problem.dimension, dtype=complex)
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = solve_seconds + time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    with capsys.disabled():
        _verdict(4, "generic coefficients equal linear closed forms",
                 ok, f"sup {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_omega_scaling(capsys, linear_setup):
    registered, expansion, grid, solve_seconds = linear_setup
    started = time.perf_counter()
    omegas = (250.0, 500.0, 1000.0, 2000.0, 4000.0)
    report = run_error_study(
        registered,
        omegas=omegas,
        s_values=(0, 1, 2, 3),
        grid_n=513,
        t_end=5.0,
        order=4,
        expansion=expansion,
    )
    slopes = fit_slopes(report)
    ok = True
    parts = []
    for s in (0, 1, 2, 3):
        target = -(s + 1)
        good = abs(slopes[s] - target) <= 0.25
        parts.append(f"s={s}: {slopes[s]:.2f}")
        ok = ok and good
    elapsed = solve_seconds + time.perf_counter() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        _verdict(5, "error decays like the next inverse power of omega",
                 ok, ", ".join(parts) + f", {elapsed:.0f}s")


def test_criterion_6_memristor_error_decay(capsys, memristor_setup):
    registered, expansion, grid, cache = memristor_setup
    started = time.perf_counter()
    report = run_error_study(
        registered,
        omegas=(100.0, 1000.0),
        s_values=(0, 1, 2, 3),
        grid_n=513,
        t_end=3.0,
        order=3,
        tol=1e-10,
        cache_dir=cache,
        expansion=expansion,
    )
    ok = True
    for omega in (100.0, 1000.0):
        sups = [report.sup_norms(s, omega) for s in (0, 1, 2, 3)]
        for s in range(3):
            if not np.all(sups[s + 1] < sups[s]):
                ok = False
    ratio = float(
        report.sup_norms(3, 1000.0).max() / report.sup_norms(3, 100.0).max()
    )
    in_band = 1e-4 / 5.0 <= ratio <= 5e-4
    ok = ok and in_band
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _verdict(6, "per-component decay in s and omega scaling of the last level",
                 ok, f"ratio {ratio:.2e}, {elapsed:.0f}s")


def test_criterion_7_cost_flatness(capsys, linear_setup):
    registered, expansion, grid, _ = linear_setup

    # CPU time, so other processes on the host do not count against either
    # side.  The omegas alternate, and the check takes the median ratio of
    # adjacent repeats: the host's speed drifts on the scale of one repeat,
    # which a per-omega minimum turns into a spurious ratio.
    def eval_time(omega):
        t0 = time.process_time()
        for t in grid:
            expansion.evaluate_truncated(float(t), omega, 4)
        return time.process_time() - t0

    # a first pass is a warm-up; the timed pairs follow it
    eval_time(500.0)
    pairs = [(eval_time(500.0), eval_time(5000.0)) for _ in range(15)]
    ratio = statistics.median(hi / lo for lo, hi in pairs)
    t500 = statistics.median(lo for lo, _ in pairs)
    t5000 = statistics.median(hi for _, hi in pairs)

    rk_times = {}
    for omega in (500.0, 5000.0):
        t0 = time.process_time()
        reference_values(
            registered, omega, grid, 1e-10, method="rk"
        )
        rk_times[omega] = time.process_time() - t0

    flat = ratio <= 1.2
    growing = rk_times[5000.0] >= 3.0 * rk_times[500.0]
    ok = flat and growing
    with capsys.disabled():
        _verdict(
            7,
            "expansion cost flat in omega, integrator cost growing",
            ok,
            f"eval {t500:.3f}s vs {t5000:.3f}s, ratio {ratio:.2f}; rk {rk_times[500.0]:.1f}s vs "
            f"{rk_times[5000.0]:.1f}s",
        )


def test_criterion_8_property_suites(capsys, memristor_setup):
    ok = True
    detail = []

    # multiplicity counts against exhaustive permutation enumeration
    rng = random.Random(20240817)
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    checked = 0
    while checked < 1000:
        m_count = rng.randint(1, 4)
        coords = []
        while len(coords) < m_count:
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            if c != (0, 0) and c not in coords:
                coords.append(c)
        kappas = [BaseFrequency(basis, coords=c) for c in coords]
        tup = tuple(sorted(rng.randint(0, m_count) for _ in range(rng.randint(1, 4))))
        target = canonicalize(
            tuple(rng.randint(0, m_count) for _ in range(rng.randint(0, 3))),
            basis,
            kappas,
        )
        if rho(target, tup, basis, kappas) != brute_force_rho(target, tup, basis, kappas):
            ok = False
            break
        checked += 1
    detail.append(f"rho x{checked}")

    # differential symmetry and multilinearity probes
    fld = memristor_field()
    nrng = np.random.default_rng(99)
    y = nrng.normal(size=5) + 0j
    dirs = [nrng.normal(size=5) + 0j for _ in range(3)]
    alpha = 1.3 - 0.4j
    scaled = fld.apply(3, y, [alpha * dirs[0], dirs[1], dirs[2]])
    plain = fld.apply(3, y, dirs)
    sym = fld.apply(3, y, [dirs[2], dirs[0], dirs[1]])
    ok = ok and np.allclose(scaled, alpha * plain, rtol=1e-12)
    ok = ok and np.allclose(sym, plain, rtol=1e-12)
    detail.append("multilinearity")

    # analytic differentials against the finite-difference oracle, orders 1..4
    samples = [
        (nrng.normal(scale=0.7, size=5) + 0j, [nrng.normal(size=5) + 0j for _ in range(4)])
        for _ in range(5)
    ]
    try:
        validate_field(fld, samples)
        detail.append("fd validation")
    except Exception as err:  # noqa: BLE001
        ok = False
        detail.append(f"fd validation failed: {err}")

    # coefficient derivatives against central differences
    _, mem_ex, _, _ = memristor_setup
    h = 1e-4
    worst = 0.0
    for r in (1, 2, 3):
        for lab in mem_ex.labels_at(r):
            tup = lab.canonical_tuple
            for t in (0.8, 2.2):
                got = mem_ex.coefficient_value(r, tup, t, order=1)
                fd = (
                    mem_ex.coefficient_value(r, tup, t + h)
                    - mem_ex.coefficient_value(r, tup, t - h)
                ) / (2 * h)
                scale = max(1e-8, float(np.max(np.abs(got))), float(np.max(np.abs(fd))))
                worst = max(worst, float(np.max(np.abs(got - fd))) / scale)
    ok = ok and worst < 1e-6
    detail.append(f"deriv fd {worst:.1e}")

    with capsys.disabled():
        _verdict(8, "property suites", ok, ", ".join(detail))
