"""Harness operations, CSV/SVG determinism, CLI surfaces, problem config."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oscillode import (
    BaseFrequency,
    FrequencyBasis,
    Problem,
    VectorField,
    cli,
    constant_amplitude,
    harness,
    linear_field,
    polynomial_field,
    problems,
)
from oscillode.cli import build_parser
from oscillode.cli import main as cli_main
from oscillode.expansion import build_expansion, dump_expansion, solve_nonoscillatory_chain
from oscillode.harness import (
    check_reference_consistency,
    compare_cost,
    error_report_csv,
    fit_slopes,
    reference_values,
    run_error_study,
    run_slope_study,
    uniform_grid,
)
from oscillode.linear_closed_form import exact_linear_solution
from oscillode.problems import get_problem, load_problem_config
from oscillode.svg import emit_svg

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def small_linear_report():
    return run_error_study(
        "linear_example",
        omegas=(300.0, 600.0),
        s_values=(0, 1, 2),
        grid_n=65,
        order=2,
    )


def test_error_study_reference_is_exact_for_linear(small_linear_report):
    assert small_linear_report.reference_kind == "exact"


def test_error_bands_decrease_with_s(small_linear_report):
    r = small_linear_report
    for omega in r.omegas:
        sups = [float(r.sup_norms(s, omega).max()) for s in r.s_values]
        assert sups[0] > sups[1] > sups[2]


def test_error_band_shrinks_with_omega(small_linear_report):
    r = small_linear_report
    for s in r.s_values:
        assert float(r.sup_norms(s, 600.0).max()) < float(r.sup_norms(s, 300.0).max())


def test_s_zero_error_is_base_difference(small_linear_report):
    # with s = 0 the error is reference minus the non-oscillatory trajectory
    r = small_linear_report
    err = r.errors[(0, 300.0)]
    assert float(np.max(np.abs(err))) < 0.1
    assert float(np.max(np.abs(err))) > 1e-4


def test_csv_deterministic_and_schema(small_linear_report):
    text1 = error_report_csv(small_linear_report)
    text2 = error_report_csv(small_linear_report)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == "t,omega,s,component,err_re,err_im"
    assert len(lines) == 1 + 65 * 2 * 3 * 2  # grid * omegas * s * components


def test_csv_17_digit_roundtrip(small_linear_report):
    text = error_report_csv(small_linear_report)
    row = text.splitlines()[1].split(",")
    err = small_linear_report.errors[(0, 300.0)][0, 0]
    assert float(row[4]) == err.real
    assert float(row[5]) == err.imag


def test_svg_count_and_determinism(tmp_path, small_linear_report):
    paths = emit_svg(small_linear_report, tmp_path / "a")
    assert len(paths) == 6  # 3 s-values x 2 omegas
    again = emit_svg(small_linear_report, tmp_path / "b")
    for p1, p2 in zip(paths, again):
        assert p1.read_bytes() == p2.read_bytes()
    content = paths[0].read_text()
    assert "<svg" in content and "Re(error)" in content and ">t<" in content


def test_svg_empty_report_rejected(small_linear_report):
    import dataclasses

    empty = dataclasses.replace(small_linear_report, omegas=())
    with pytest.raises(ValueError):
        emit_svg(empty, "unused")


def test_reference_cache_roundtrip(tmp_path):
    reg = get_problem("worked_example")
    grid = np.linspace(0.0, 1.0, 33)
    v1, kind = reference_values(reg, 80.0, grid, 1e-8, cache_dir=tmp_path)
    assert kind.startswith("rk")
    files = list(tmp_path.glob("ref_*.npz"))
    assert len(files) == 1
    v2, _ = reference_values(reg, 80.0, grid, 1e-8, cache_dir=tmp_path)
    assert np.array_equal(v1, v2)
    # different omega gets its own cache entry
    reference_values(reg, 90.0, grid, 1e-8, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("ref_*.npz"))) == 2


def _config_problem(tmp_path, y0):
    cfg = {
        "dimension": 2,
        "basis": [1.0, math.sqrt(2.0)],
        "kappa": [["1", "0"], ["0", "1"]],
        "y0": y0,
        "t_end": 1.0,
        "field": "cubic_demo",
    }
    path = tmp_path / f"p{len(list(tmp_path.glob('p*.json')))}.json"
    path.write_text(json.dumps(cfg))
    return load_problem_config(path)


def test_reference_cache_key_covers_problem_content(tmp_path):
    # both configs get the default name; only y0 tells them apart
    first = _config_problem(tmp_path, [0.1, 0.2])
    second = _config_problem(tmp_path, [0.4, -0.3])
    assert first.name == second.name == "config_problem"
    grid = np.linspace(0.0, 1.0, 17)
    cache = tmp_path / "cache"
    v1, _ = reference_values(first, 80.0, grid, 1e-7, cache_dir=cache)
    v2, _ = reference_values(second, 80.0, grid, 1e-7, cache_dir=cache)
    fresh, _ = reference_values(second, 80.0, grid, 1e-7)
    assert len(list(cache.glob("ref_*.npz"))) == 2
    assert np.array_equal(v2, fresh)
    assert not np.allclose(v1, v2)


def test_reference_cache_unreadable_file_is_a_miss(tmp_path, caplog):
    reg = get_problem("worked_example")
    grid = np.linspace(0.0, 0.5, 9)
    v1, _ = reference_values(reg, 80.0, grid, 1e-7, cache_dir=tmp_path)
    (path,) = tmp_path.glob("ref_*.npz")
    path.write_bytes(b"not an npz file")
    with caplog.at_level("WARNING", logger="oscillode"):
        v2, _ = reference_values(reg, 80.0, grid, 1e-7, cache_dir=tmp_path)
    assert np.array_equal(v1, v2)
    assert "unreadable" in caplog.text
    assert list(tmp_path.iterdir()) == [path]
    with np.load(path) as data:
        assert np.array_equal(data["values"], v1)


def test_reference_hierarchy_guard():
    worst = check_reference_consistency("linear_example", omega=500.0, grid_n=65)
    assert worst < 1e-8


@pytest.mark.filterwarnings("error")  # numpy's warning at a nan omega would come first
@pytest.mark.parametrize("omega", [math.nan, math.inf, 0.0, -5.0])
def test_reference_rejects_a_bad_omega_before_any_work(omega, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("reference work started")

    monkeypatch.setattr(harness, "_resolve", no_work)
    for name, method in (("memristor", "auto"), ("linear_example", "auto"),
                         ("linear_example", "rk")):
        with pytest.raises(ValueError, match=f"omega={omega!r} must be finite and positive"):
            reference_values(name, omega, [0.0, 0.5], cache_dir=tmp_path, method=method)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        *(({"method": method}, f"method={method!r} must be 'auto' or 'rk'")
          for method in ("exact", "bogus", "RK", None)),
        *(({"tol": tol}, f"tol={tol!r} must be finite and positive")
          for tol in (0.0, -1e-10, math.nan, math.inf)),
    ],
)
def test_reference_rejects_a_bad_method_or_tol_before_any_work(kwargs, message, tmp_path,
                                                               monkeypatch):
    # checked for a linear problem too, whose exact solution reads neither
    def no_work(*args, **kwargs):
        raise AssertionError("reference work started")

    monkeypatch.setattr(harness, "_resolve", no_work)
    for name in ("linear_example", "memristor"):
        with pytest.raises(ValueError, match=re.escape(message)):
            reference_values(name, 300.0, [0.0, 0.5], cache_dir=tmp_path, **kwargs)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": -1}, "tol=-1.0 must be finite and positive"),
        *(({"omegas": (300.0, omega)}, f"omega={omega!r} must be finite and positive")
          for omega in (math.nan, 0.0, -5.0)),
    ],
    ids=["tol_-1", "omega_nan", "omega_0", "omega_-5"],
)
def test_a_study_checks_omega_and_tol_before_it_builds(kwargs, message, monkeypatch):
    # the given value is named, not the one a reference would integrate at
    def no_build(*args, **kwargs):
        raise AssertionError("the expansion was built")

    monkeypatch.setattr(harness, "_build_solved", no_build)
    kwargs = {"omegas": (300.0,), **kwargs}
    for study in (run_error_study, lambda problem, **kw: compare_cost(problem, s=1, **kw)):
        with pytest.raises(ValueError, match=re.escape(message)):
            study("memristor", grid_n=9, **kwargs)


def test_compare_cost_caches_the_reference_that_reference_values_reads(tmp_path, monkeypatch):
    integrated = []
    rk_reference = harness._rk_reference

    def integrate_and_keep(*args):
        integrated.append(rk_reference(*args))
        return integrated[-1]

    monkeypatch.setattr(harness, "_rk_reference", integrate_and_keep)
    compare_cost("memristor", (300.0,), 1, grid_n=9, t_end=0.5, order=1, cache_dir=tmp_path)
    assert len(integrated) == 1
    assert len(list(tmp_path.glob("ref_*.npz"))) == 1

    def no_integration(*args):
        raise AssertionError("the reference was integrated again")

    monkeypatch.setattr(harness, "_rk_reference", no_integration)
    values, provenance = reference_values(
        "memristor", 300.0, uniform_grid(0.5, 9), cache_dir=tmp_path
    )
    assert provenance == "rk(tol=1e-10)"
    assert np.array_equal(values, integrated[0][0])


@pytest.mark.parametrize(
    "grid", [[0.0, 0.5, 0.25, 1.0, 0.75, 1.5], [1.5, 1.25, 1.0, 0.5, 0.0]],
    ids=["shuffled", "reversed"],
)
def test_an_unordered_grid_gets_an_accurate_reference(grid):
    registered = get_problem("linear_example")
    values, _ = reference_values(registered, 300.0, grid, method="rk")
    exact = exact_linear_solution(registered.linear, 300.0)
    for t, y in zip(grid, values):
        assert float(np.max(np.abs(y - exact(t)))) <= 1e-9


def test_reference_memory_does_not_grow_with_omega():
    # ten times the omega takes about ten times the steps; a reference keeps
    # only its grid's states, so its memory stays put
    registered = get_problem("memristor")
    grid = np.linspace(0.0, 3.0, 129)
    harness._rk_reference(registered, 100.0, grid[:3], 1e-10)  # one-time allocations
    peaks, steps = {}, {}
    for omega in (100.0, 1000.0):
        tracemalloc.start()
        try:
            _, solution = harness._rk_reference(registered, omega, grid, 1e-10)
            peaks[omega] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solution.ts.tolist() == grid.tolist()
        steps[omega] = solution.n_accepted
    assert steps[1000.0] >= 5 * steps[100.0]
    assert peaks[1000.0] <= 1.5 * peaks[100.0], peaks


def test_slope_fit_on_synthetic_report():
    import dataclasses

    base = run_error_study(
        "linear_example", omegas=(300.0,), s_values=(0,), grid_n=9, order=0
    )
    errors = {}
    for s in (0, 1):
        for omega in (100.0, 200.0, 400.0):
            errors[(s, omega)] = np.full((9, 2), omega ** -(s + 1), dtype=complex)
    synthetic = dataclasses.replace(
        base, omegas=(100.0, 200.0, 400.0), s_values=(0, 1), errors=errors
    )
    slopes = fit_slopes(synthetic)
    assert slopes[0] == pytest.approx(-1.0, abs=1e-12)
    assert slopes[1] == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("name", ["omegas", "s_values"])
def test_an_empty_study_input_is_rejected(name):
    with pytest.raises(ValueError, match=f"{name} is empty; pass None for the default"):
        run_error_study("linear_example", grid_n=5, t_end=0.5, order=1, **{name: ()})


@pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
def test_a_grid_needs_a_finite_positive_t_end(t_end):
    """Checked before numpy would warn about, or silently reverse, the grid."""
    message = rf"^t_end={t_end!r} must be finite and positive$"
    with pytest.raises(ValueError, match=message):
        uniform_grid(t_end, 3)
    with pytest.raises(ValueError, match=message):
        run_error_study("linear_example", omegas=(300.0,), s_values=(0,), grid_n=5, t_end=t_end)


def test_a_consistency_check_needs_a_grid_of_two_points():
    with pytest.raises(ValueError, match="a grid needs at least 2 points, at 0 and t_end, not 1"):
        check_reference_consistency("linear_example", 300.0, grid_n=1)
    # a fractional size is refused, not truncated to a 2-point grid
    with pytest.raises(ValueError, match="^grid_n=2.5 must be a nonnegative integer$"):
        run_error_study("linear_example", omegas=(300.0,), s_values=(0,), grid_n=2.5, order=0)


def test_an_error_study_takes_its_order_from_a_given_expansion():
    registered = get_problem("linear_example")
    expansion = build_expansion(registered.problem, order=2)
    solve_nonoscillatory_chain(expansion, 0.5)
    report = run_error_study(registered, omegas=(300.0,), grid_n=9, t_end=0.5,
                             expansion=expansion)
    assert report.s_values == (0, 1, 2)
    with pytest.raises(ValueError, match="order=4 differs from the expansion's order 2"):
        run_error_study(registered, omegas=(300.0,), grid_n=9, t_end=0.5, order=4,
                        expansion=expansion)


@pytest.mark.parametrize("omegas", [(500.0,), (500.0, 500.0)])
def test_a_slope_needs_two_distinct_omegas(omegas, capsys):
    report = run_error_study("linear_example", omegas=omegas, s_values=(0,), grid_n=9, order=1)
    with pytest.raises(ValueError, match="a slope needs two distinct omegas"):
        fit_slopes(report)
    rc = cli_main(["slope", "--problem", "linear_example", "--grid", "9"]
                  + [arg for w in omegas for arg in ("--omega", str(w))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("oscillode: error: a slope needs two distinct omegas")
    assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", [math.nan, -1.0, 0.0, math.inf])
def test_a_slope_study_checks_its_tolerance_before_it_runs(tolerance, capsys, monkeypatch):
    # a bad tolerance would fail every s, so it is refused before the study
    def no_study(*args, **kwargs):
        raise AssertionError("the study ran")

    monkeypatch.setattr(harness, "run_error_study", no_study)
    message = f"tolerance={tolerance!r} must be finite and positive"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_slope_study("linear_example", omegas=(500.0, 1000.0), grid_n=17, tolerance=tolerance)
    rc = cli_main(["slope", "--problem", "linear_example", "--omega", "500", "--omega", "1000",
                   "--grid", "17", "--slope-tolerance", str(tolerance)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oscillode: error: {message}\n"


# -- CLI ----------------------------------------------------------------------


@pytest.mark.parametrize("problem, r", [("worked_example", 4), ("memristor", 6)])
def test_cli_table_matches_golden(problem, r, capsys):
    rc = cli_main(["table", "--problem", problem, "-r", str(r)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{problem}_table_r{r}.txt").read_text()


def test_cli_table_memristor_r3(capsys):
    rc = cli_main(["table", "--problem", "memristor", "-r", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 13
    body = "\n".join(lines)
    assert "(1, 2)" not in body
    assert "(3, 4)" not in body


def test_cli_expand_writes_dump(tmp_path):
    out = tmp_path / "dump.txt"
    rc = cli_main(
        ["expand", "--problem", "worked_example", "--order", "2", "--t-end", "1.0",
         "--out", str(out)]
    )
    assert rc == 0
    assert "kind=algebraic" in out.read_text()


def test_cli_solve_csv(tmp_path):
    out = tmp_path / "solve.csv"
    rc = cli_main(
        ["solve", "--problem", "worked_example", "--omega", "200", "--order", "1",
         "--t-end", "1.0", "--grid", "17", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,omega,s,component,y_re,y_im"
    assert len(lines) == 1 + 17 * 2


def test_cli_reference_csv(tmp_path):
    out = tmp_path / "ref.csv"
    rc = cli_main(
        ["reference", "--problem", "worked_example", "--omega", "150",
         "--t-end", "1.0", "--grid", "9", "--tol", "1e-8",
         "--cache-dir", str(tmp_path / "cache"), "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith("t,omega,component,")


def test_cli_errors_csv_and_svg(tmp_path):
    out = tmp_path / "err.csv"
    rc = cli_main(
        ["errors", "--problem", "linear_example", "--omega", "300", "--omega", "600",
         "--order", "0", "--order", "1", "--grid", "33", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith("t,omega,s,component,err_re,err_im")

    svg_dir = tmp_path / "plots"
    rc = cli_main(
        ["errors", "--problem", "linear_example", "--omega", "300",
         "--order", "0", "--grid", "17", "--format", "svg", "--out", str(svg_dir)]
    )
    assert rc == 0
    assert len(list(svg_dir.glob("*.svg"))) == 1


def test_cli_errors_svg_without_out_is_rejected_before_the_study(monkeypatch, capsys):
    studies = []
    monkeypatch.setattr(cli, "run_error_study", lambda *a, **k: studies.append(a))
    rc = cli_main(
        ["errors", "--problem", "linear_example", "--omega", "300",
         "--order", "0", "--grid", "9", "--format", "svg"]
    )
    assert rc == 2
    assert capsys.readouterr().err == "oscillode: error: --format svg needs --out DIRECTORY\n"
    assert studies == []


def test_cli_expand_rejects_a_bad_t_end_before_the_build(monkeypatch, capsys):
    builds = []
    monkeypatch.setattr(cli, "build_expansion", lambda *a, **k: builds.append(a))
    rc = cli_main(["expand", "--problem", "worked_example", "--order", "7", "--t-end", "nan"])
    assert rc == 2
    assert capsys.readouterr().err == "oscillode: error: t_end=nan must be finite and positive\n"
    assert builds == []


def test_a_field_value_of_the_wrong_shape_is_named_not_broadcast():
    basis = FrequencyBasis([1.0, math.sqrt(2.0)])
    kappas = [BaseFrequency(1, basis, coords=(1, 0)), BaseFrequency(2, basis, coords=(0, 1))]
    # a one-component value for a two-component state; the jet is right
    jet = linear_field(-np.eye(2), max_order=4).jet
    field = VectorField(2, lambda y: np.array([-y[0] - y[1]]), jet, 4)
    forcings = [constant_amplitude(kappa, a) for kappa, a in zip(kappas, ([0.1, 0.2], [0.3, 0.0]))]
    problem = Problem(field, forcings, [0.1, 0.2], basis)
    message = re.escape("field value has shape (1,) at y0; the state needs (2,)")
    with pytest.raises(ValueError, match=message):
        solve_nonoscillatory_chain(build_expansion(problem, order=2), 1.0)
    registered = problems.RegisteredProblem("one_component_value", problem, None, 1.0, (100.0,), 2)
    with pytest.raises(ValueError, match=message):
        reference_values(registered, 100.0, np.linspace(0.0, 1.0, 5), method="rk")


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = cli_main(
        ["bench", "--problem", "linear_example", "--omega", "300", "--omega", "600",
         "--order", "2", "--grid", "33", "--out", str(out),
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,omega,seconds,peak_kb,points"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods.count("expansion_build") == 1
    assert methods.count("expansion_eval") == 2
    assert methods.count("rk_reference") == 2


def test_compare_cost_times_outside_tracemalloc(monkeypatch):
    clock = harness.time.perf_counter
    tracing_at_clock = []

    def recording_clock():
        tracing_at_clock.append(tracemalloc.is_tracing())
        return clock()

    monkeypatch.setattr(harness.time, "perf_counter", recording_clock)
    report = compare_cost("linear_example", (40.0,), 1, grid_n=5, t_end=0.5, order=1)
    assert tracing_at_clock and not any(tracing_at_clock)
    assert [row["method"] for row in report.rows] == [
        "expansion_build", "expansion_eval", "rk_reference"
    ]
    assert all(row["peak_kb"] > 0.0 for row in report.rows)


def test_compare_cost_chain_row_counts_the_dense_output(monkeypatch):
    built = []
    build = harness._build_solved

    def build_and_keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "_build_solved", build_and_keep)
    report = compare_cost("linear_example", (40.0,), 1, grid_n=5, t_end=0.5, order=2)
    # the stacked chain of levels 0-2: step ends and each step's seven
    # interpolant coefficients
    chain = built[0].chain_solution
    assert len(chain.dense) == chain.ts.size - 1
    assert all(step.shape == (7, chain.ys.shape[1]) for step in chain.dense)
    arrays = (chain.ts, chain.ys, *chain.dense)
    assert report.rows[0]["method"] == "expansion_build"
    assert report.rows[0]["peak_kb"] == sum(a.nbytes for a in arrays) / 1024.0


# a small valid problem config
CONFIG = {
    "dimension": 2,
    "basis": [1.0, math.sqrt(2.0)],
    "kappa": [["1", "0"], ["0", "1"]],
    "y0": [0.1, 0.2],
    "t_end": 1.0,
}
# 2*b1 - b2 is zero on the basis (1, 2): base frequency 1 is exactly 0
ZERO_BASE_CONFIG = {**CONFIG, "basis": [1.0, 2.0], "kappa": [[2, -1], [1, 0]]}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["errors", "--order", "9", "--grid", "9"], "requested s=9 above built order 4"),
        (["table", "--problem", "worked_example", "-r", "3", "--delta-min", "10"],
         "generated frequency 2 ~ 2.000e+00"),
        (["table", "--problem", "memristor", "-r", "3", "--delta-min", "nan"],
         "delta_min=nan must be finite and positive"),
        (["solve", "--problem", "worked_example", "--omega", "100", "--grid", "5",
          "--t-end", "nan"], "t_end=nan must be finite and positive"),
        (["reference", "--problem", "worked_example", "--omega", "100", "--grid", "5",
          "--tol", "nan"], "tol=nan must be finite and positive"),
        (["reference", "--problem", "memristor", "--omega", "nan", "--grid", "5"],
         "omega=nan must be finite and positive"),
        (["solve", "--problem", "memristor", "--omega", "nan", "--order", "3", "--grid", "9"],
         "omega=nan must be finite and positive"),
        (["reference", "--problem", "memristor", "--omega", "1000", "--omega", "nan",
          "--grid", "9"], "omega=nan must be finite and positive"),
        (["errors", "--problem", "linear_example", "--omega", "300", "--order", "1",
          "--grid", "9", "--tol", "0"], "tol=0.0 must be finite and positive"),
        (["errors", "--problem", "memristor", "--omega", "-5", "--grid", "9"],
         "omega=-5.0 must be finite and positive"),
        (["bench", "--problem", "linear_example", "--omega", "300", "--order", "1",
          "--grid", "9", "--tol", "-1"], "tol=-1.0 must be finite and positive"),
        (["expand", "--problem", "worked_example", "--order", "-1"],
         "order=-1 must be a nonnegative integer"),
        *(
            ([command, "--problem", "worked_example", "--omega", "100", "--grid", "5",
              "--t-end", "inf"], "t_end=inf must be finite and positive")
            for command in ("solve", "reference", "errors")
        ),
        *(
            (["table", "--problem", "worked_example", "-r", level],
             f"level r_max={level} must be a nonnegative integer")
            for level in ("-1", "-2")
        ),
        *(
            ([command, "--problem", problem, "--omega", "100", "--grid", grid],
             f"a grid needs at least 2 points, at 0 and t_end, not {grid}")
            for command, problem, grid in (
                ("solve", "linear_example", "0"), ("reference", "memristor", "1"),
                ("errors", "linear_example", "0"), ("errors", "memristor", "1"),
                ("bench", "linear_example", "1"),
            )
        ),
        (["expand", "--problem", "nosuch"],
         "unknown problem 'nosuch'; known: linear_example, memristor, worked_example"),
        (["expand", "--config", {k: v for k, v in CONFIG.items() if k != "basis"}],
         "config lacks required key(s) 'basis'; required: dimension, basis, kappa, y0, t_end"),
        (["expand", "--config", {**CONFIG, "field": "nope"}],
         "unknown field 'nope'; known: cubic_demo, memristor"),
        (["expand", "--config", {**CONFIG, "field": ["nope"]}],
         "unknown field ['nope']; known: cubic_demo, memristor"),
        (["expand", "--config", "/nonexistent/problem.json"],
         "cannot read config '/nonexistent/problem.json': No such file or directory"),
        *(
            ([command, "--config", ZERO_BASE_CONFIG, *extra],
             "base frequency 2*b1-b2 ~ 0.000e+00 of index 1 is zero")
            for command, extra in (("table", ["-r", "1"]), ("expand", ["--order", "1"]))
        ),
        (["expand", "--config", {**CONFIG, "basis": [1.0, math.nan]}],
         "basis real 2 is nan; every basis real must be finite and nonzero"),
    ],
    ids=["errors", "table", "table_delta_min_nan", "solve_t_end", "reference_tol",
         "reference_omega_nan", "solve_omega_nan", "reference_second_omega_nan", "errors_tol_0",
         "errors_omega_-5", "bench_tol_-1", "expand_order_-1", "solve_t_end_inf",
         "reference_t_end_inf", "errors_t_end_inf", "table_level_-1", "table_level_-2",
         "solve_grid_0", "reference_grid_1", "errors_grid_0", "errors_memristor_grid_1",
         "bench_grid_1", "expand_unknown_problem", "expand_config_without_basis",
         "expand_config_unknown_field", "expand_config_list_field", "expand_missing_config",
         "table_zero_base_frequency", "expand_zero_base_frequency", "expand_nan_basis_real"],
)
@pytest.mark.filterwarnings("error")  # a warning printed before the error is a second line
def test_cli_reports_bad_input_in_one_line(argv, message, capsys, tmp_path):
    """A dict in ``argv`` is a config, written to a file whose path replaces it."""
    config = tmp_path / "problem.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"oscillode: error: {message}")
    assert captured.err.count("\n") == 1


def test_solve_and_reference_check_every_omega_before_they_build(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("an expansion was built or a reference integrated")

    monkeypatch.setattr(cli, "build_expansion", no_work)
    monkeypatch.setattr(cli, "reference_values", no_work)
    for argv in (
        ["solve", "--problem", "memristor", "--omega", "nan", "--order", "3", "--grid", "9"],
        ["reference", "--problem", "memristor", "--omega", "1000", "--omega", "nan", "--grid", "9"],
    ):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "oscillode: error: omega=nan must be finite and positive\n"


def test_cli_problems_lists_builtins(capsys):
    rc = cli_main(["problems"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("linear_example", "memristor", "worked_example"):
        assert name in out


# each subcommand's options: exactly the flags its handler reads
CLI_FLAGS = {
    "expand": {"--problem", "--config", "--t-end", "--out", "--delta-min", "--order"},
    "solve": {"--problem", "--config", "--t-end", "--grid", "--out", "--delta-min",
              "--omega", "--order"},
    "reference": {"--problem", "--config", "--t-end", "--grid", "--out", "--tol",
                  "--cache-dir", "--omega"},
    "errors": {"--problem", "--config", "--t-end", "--grid", "--out", "--tol",
               "--delta-min", "--cache-dir", "--omega", "--order", "--format"},
    "table": {"--problem", "--config", "--out", "--delta-min", "-r"},
    "bench": {"--problem", "--config", "--t-end", "--grid", "--out", "--tol",
              "--cache-dir", "--omega", "--order"},
    "slope": {"--problem", "--config", "--t-end", "--grid", "--cache-dir", "--omega",
              "--order", "--slope-tolerance"},
    "problems": set(),
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = {
        name: {a.option_strings[0] for a in parser._actions if a.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert flags == CLI_FLAGS
    assert sum(map(len, flags.values())) == 55


# a valid invocation of each subcommand, small enough for a test
CLI_VALID = {
    "expand": ["expand", "--problem", "worked_example", "--order", "1", "--t-end", "0.5"],
    "solve": ["solve", "--problem", "worked_example", "--omega", "100", "--order", "1",
              "--t-end", "0.5", "--grid", "5"],
    "reference": ["reference", "--problem", "linear_example", "--omega", "100",
                  "--t-end", "0.5", "--grid", "5"],
    "errors": ["errors", "--problem", "linear_example", "--omega", "100", "--order", "0",
               "--t-end", "0.5", "--grid", "5"],
    "table": ["table", "--problem", "worked_example", "-r", "2"],
    "bench": ["bench", "--problem", "linear_example", "--omega", "100", "--order", "1",
              "--t-end", "0.5", "--grid", "5"],
    "slope": ["slope", "--problem", "linear_example", "--omega", "250", "--omega", "4000",
              "--order", "0", "--grid", "65"],
}


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("expand", "--grid", "9"), ("expand", "--tol-abs", "1e-3"),
        ("expand", "--tol-rel", "1e-3"), ("expand", "--cache-dir", "cache"),
        ("solve", "--tol-abs", "1e-3"), ("solve", "--tol-rel", "1e-3"),
        ("solve", "--cache-dir", "cache"),
        ("reference", "--delta-min", "0.01"),
        ("table", "--t-end", "nan"), ("table", "--grid", "1"), ("table", "--tol-abs", "-5"),
        ("table", "--tol-rel", "-5"), ("table", "--cache-dir", "cache"),
        ("bench", "--delta-min", "0.01"),
        ("slope", "--out", "f"), ("slope", "--tol-abs", "1e-3"),
        ("slope", "--tol-rel", "1e-3"), ("slope", "--delta-min", "0.01"),
        *((command, flag, "1e-3") for command in ("reference", "errors", "bench")
          for flag in ("--tol-abs", "--tol-rel")),
    ],
)
def test_a_flag_the_subcommand_does_not_read_is_rejected(command, flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        cli_main(CLI_VALID[command] + [flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


@pytest.mark.parametrize("command", sorted(CLI_VALID))
def test_the_valid_invocations_exit_0(command):
    assert cli_main(CLI_VALID[command]) == 0


# -- config loading --------------------------------------------------------------


def test_load_problem_config(tmp_path):
    cfg = {
        "dimension": 2,
        "basis": [1.0, math.sqrt(2.0)],
        "basis_names": ["1", "sqrt(2)"],
        "kappa": [["1", "0"], ["0", "1"], ["-1/2", "1"]],
        "y0": [0.1, [0.0, 0.2]],
        "t_end": 1.5,
        "field": "cubic_demo",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    registered = load_problem_config(path, name="custom")
    assert registered.name == "custom"
    problem = registered.problem
    assert problem.dimension == 2
    assert problem.kappas[2].value == pytest.approx(-0.5 + math.sqrt(2.0))
    assert problem.y0[1] == 0.2j

    ex = build_expansion(problem, order=2)
    solve_nonoscillatory_chain(ex, registered.t_end)
    y = ex.evaluate_truncated(1.0, 300.0, 2)
    assert np.all(np.isfinite(y))


@pytest.mark.parametrize("key, value", [("dimension", 2.7), ("order", 2.5)])
def test_load_problem_config_rejects_a_fractional_size(tmp_path, key, value):
    cfg = {
        "dimension": 2,
        "basis": [1.0],
        "kappa": [["1"], ["3/2"]],
        "y0": [0.05, 0.05],
        "t_end": 1.0,
        key: value,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=f"^{key}={value} must be a nonnegative integer$"):
        load_problem_config(path)


def test_load_problem_config_rejects_a_config_that_is_not_an_object(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(list(CONFIG)))
    with pytest.raises(ValueError, match="^a problem config is a JSON object, not list$"):
        load_problem_config(path)


def test_load_problem_config_rejects_float_mode(tmp_path):
    """A float-mode config is refused with the exact declaration to use."""
    cfg = {
        "dimension": 2,
        "basis": [1.0],
        "mode": "float",
        "tolerance": 1e-9,
        "kappa": [1.0, 1.4142135623730951],
        "y0": [0.05, 0.05],
        "t_end": 1.0,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=r"mode 'float' is not supported.*a basis real of its own"):
        load_problem_config(path)


@pytest.mark.parametrize("key, value", [("ordr", 5), ("tolerance", 1e-3)])
def test_load_problem_config_rejects_an_unknown_key(tmp_path, key, value, capsys):
    """A misspelled or retired key is an error, not a silent default."""
    cfg = {
        "dimension": 2,
        "mode": "exact",
        "basis": [1.0],
        "kappa": [["1"], ["3/2"]],
        "y0": [0.05, 0.05],
        "t_end": 1.0,
        key: value,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    accepted = "dimension, mode, basis, basis_names, kappa, field, y0, t_end, name, omegas, order"
    message = f"^unknown config key\\(s\\) '{key}'; accepted: {accepted}$"
    with pytest.raises(ValueError, match=message):
        load_problem_config(path)
    assert cli_main(["expand", "--config", str(path), "--order", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"oscillode: error: unknown config key(s) '{key}'")
    assert err.count("\n") == 1


def test_a_named_field_loads_from_a_config(tmp_path):
    """A config naming ``cubic_demo`` or ``memristor`` builds the problem that
    ``Problem(...)`` builds with that field and forcing ``m`` a constant 0.5
    in component ``(m-1) mod d``."""
    cubic_demo = polynomial_field(
        2, [{(0, 1): 1.0, (3, 0): -0.2}, {(1, 0): -1.0, (0, 1): -0.1, (2, 0): 0.15}], max_order=8
    )
    cases = [
        ("cubic_demo", cubic_demo, [0.1, 0.2], [[0.5, 0], [0, 0.5], [0.5, 0]]),
        ("memristor", problems.memristor_field(), [-0.8, -0.4, 0.0, 1e-4, 0.0],
         [[0.5, 0, 0, 0, 0], [0, 0.5, 0, 0, 0], [0, 0, 0.5, 0, 0]]),
    ]
    coords = [(1, 0), (0, 1), (-1, 1)]
    basis = FrequencyBasis([1.0, math.sqrt(2.0)], names=("1", "sqrt(2)"))
    kappas = [BaseFrequency(m, basis, coords=c) for m, c in enumerate(coords, start=1)]
    grid = uniform_grid(0.5, 5)
    for field, vector_field, y0, amplitudes in cases:
        cfg = {
            "dimension": len(y0),
            "basis": [1.0, math.sqrt(2.0)],
            "basis_names": ["1", "sqrt(2)"],
            "kappa": [list(c) for c in coords],
            "y0": y0,
            "t_end": 0.5,
            "field": field,
        }
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(cfg))
        forcings = [constant_amplitude(k, a) for k, a in zip(kappas, amplitudes)]
        in_code = Problem(vector_field, forcings, y0=y0, basis=basis)
        dumps, values = [], []
        for problem in (load_problem_config(path).problem, in_code):
            ex = build_expansion(problem, order=2)
            solve_nonoscillatory_chain(ex, 0.5)
            dumps.append(dump_expansion(ex))
            values.append(ex.table(grid, 2).evaluate(300.0, 2))
        assert dumps[0] == dumps[1], field
        assert np.array_equal(values[0], values[1]), field


def test_cli_accepts_config(tmp_path, capsys):
    cfg = {
        "dimension": 2,
        "basis": [1.0],
        "basis_names": ["1"],
        "kappa": [["1"], ["3/2"]],
        "y0": [0.05, 0.05],
        "t_end": 1.0,
        "field": "cubic_demo",
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    rc = cli_main(["table", "--config", str(path), "-r", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3/2" in out


def test_expansion_dump_golden_files():
    for name, t_end in (("worked_example", 5.0), ("memristor", 3.0)):
        reg = get_problem(name)
        ex = build_expansion(reg.problem, order=3)
        solve_nonoscillatory_chain(ex, t_end)
        golden = (GOLDEN / f"{name}_expansion_r3.txt").read_text()
        assert dump_expansion(ex) == golden
