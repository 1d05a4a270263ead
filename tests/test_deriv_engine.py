"""Differentials: fd oracle, validation, multilinearity, memristor field, points."""

import math

import numpy as np
import pytest

from oscillode.deriv_engine import (
    VectorField,
    constant_amplitude,
    fd_differential,
    linear_field,
    polynomial_amplitude,
    polynomial_field,
    validate_field,
)
from oscillode.errors import UnsupportedOrder, ValidationFailed
from oscillode.problems import memristor_field


def _random_samples(rng, dim, count, n_dirs=4, scale=0.7):
    samples = []
    for _ in range(count):
        y = rng.normal(scale=scale, size=dim) + 1j * 0.0
        dirs = [rng.normal(scale=1.0, size=dim) + 1j * 0.0 for _ in range(n_dirs)]
        samples.append((y, dirs))
    return samples


def test_fd_linear_field_first_order_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    fld = linear_field(a)
    y = rng.normal(size=3)
    v = rng.normal(size=3)
    got = fd_differential(fld, 1, y, [v], h=1e-5)
    assert np.allclose(got, a @ v, atol=1e-9)


def test_memristor_second_differential_component3():
    # mixed y1/y3 curvature of the third row is -6 a y1
    fld = memristor_field()
    rng = np.random.default_rng(1)
    y = rng.normal(size=5) + 0j
    e1 = np.eye(5)[0]
    e3 = np.eye(5)[2]
    exact = fld.apply(2, y, [e1, e3])
    assert exact[2] == pytest.approx(-6.0 * 8.0 * y[0].real, rel=1e-12)
    fd_a = fd_differential(fld, 2, y, [e1, e3], h=1e-4)
    fd_b = fd_differential(fld, 2, y, [e1, e3], h=5e-5)
    assert fd_a[2] == pytest.approx(exact[2], rel=1e-5)
    assert fd_b[2] == pytest.approx(exact[2], rel=1e-5)


def test_fd_symmetry_in_directions():
    fld = memristor_field()
    rng = np.random.default_rng(2)
    y = rng.normal(size=5) + 0j
    v = rng.normal(size=5) + 0j
    w = rng.normal(size=5) + 0j
    ab = fd_differential(fld, 2, y, [v, w], h=1e-4)
    ba = fd_differential(fld, 2, y, [w, v], h=1e-4)
    assert np.allclose(ab, ba, atol=1e-6)


def test_validate_linear_field_tight():
    # first-order check on an exact linear field is limited only by roundoff
    rng = np.random.default_rng(3)
    fld = linear_field(rng.normal(size=(3, 3)))
    report = validate_field(fld, _random_samples(rng, 3, 4, n_dirs=1))
    assert max(dev for _, dev in report) < 1e-10


def test_validate_linear_field_all_orders():
    rng = np.random.default_rng(30)
    fld = linear_field(rng.normal(size=(3, 3)))
    validate_field(fld, _random_samples(rng, 3, 4))


def test_validate_memristor_field_to_order_four():
    fld = memristor_field()
    rng = np.random.default_rng(4)
    assert fld.max_order == 4
    validate_field(fld, _random_samples(rng, 5, 6))


def test_validate_detects_corruption():
    base = memristor_field()

    def corrupted(y):
        differential_at = base.jet(y)

        def corrupted_at(n, directions):
            out = differential_at(n, directions)
            if n == 2:
                out = out + 1e-2
            return out

        return corrupted_at

    bad = VectorField(dimension=5, evaluate=base.evaluate, jet=corrupted, max_order=4)
    rng = np.random.default_rng(5)
    with pytest.raises(ValidationFailed):
        validate_field(bad, _random_samples(rng, 5, 3))


def test_multilinearity_and_symmetry_exact():
    fld = memristor_field()
    rng = np.random.default_rng(6)
    y = rng.normal(size=5) + 0j
    dirs = [rng.normal(size=5) + 0j for _ in range(3)]
    alpha = 0.37 - 1.2j

    scaled = fld.apply(3, y, [alpha * dirs[0], dirs[1], dirs[2]])
    plain = fld.apply(3, y, dirs)
    assert np.allclose(scaled, alpha * plain, rtol=1e-12, atol=1e-14)

    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        permuted = fld.apply(3, y, [dirs[i] for i in perm])
        assert np.allclose(permuted, plain, rtol=1e-12, atol=1e-14)


def test_memristor_linear_components_vanish_at_high_order():
    # rows 1 and 5 are linear, so every differential of order >= 2 vanishes
    fld = memristor_field()
    rng = np.random.default_rng(7)
    y = rng.normal(size=5) + 0j
    dirs = [rng.normal(size=5) + 0j for _ in range(4)]
    for n in (2, 3, 4):
        exact = fld.apply(n, y, dirs[:n])
        assert exact[0] == 0.0 and exact[4] == 0.0
    fd4 = fd_differential(fld, 4, y, dirs, h=2e-2)
    assert abs(fd4[0]) < 1e-5 and abs(fd4[4]) < 1e-5


def test_unsupported_order_raises():
    fld = memristor_field()
    rng = np.random.default_rng(8)
    y = rng.normal(size=5) + 0j
    dirs = [rng.normal(size=5) + 0j for _ in range(5)]
    with pytest.raises(UnsupportedOrder):
        fld.apply(5, y, dirs)


def test_polynomial_field_matches_fd():
    fld = polynomial_field(
        [
            {(0, 1): 1.0, (3, 0): -0.2},
            {(1, 0): -1.0, (2, 0): 0.15, (0, 1): -0.1},
        ]
    )
    rng = np.random.default_rng(9)
    validate_field(fld, _random_samples(rng, 2, 5))
    # degree-3 polynomial: order-4 differential is identically zero
    y = rng.normal(size=2) + 0j
    dirs = [rng.normal(size=2) + 0j for _ in range(4)]
    assert np.allclose(fld.apply(4, y, dirs), 0.0)


# -- per-point jets -------------------------------------------------------------


def _complex_samples(rng, dim, n_dirs):
    y = rng.normal(scale=0.7, size=dim) + 1j * rng.normal(scale=0.3, size=dim)
    dirs = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(n_dirs)]
    return y, dirs


def _linear_times_scalar_diff(n, lin_value, lin_dots, scalar_derivs, var_comps):
    """n-th differential of L(y) * phi(y_var) with L linear, one product at a time."""
    prod_all = 1.0
    for v in var_comps:
        prod_all = prod_all * v
    total = lin_value * scalar_derivs[n] * prod_all
    for i in range(n):
        rest = 1.0
        for j, v in enumerate(var_comps):
            if j != i:
                rest = rest * v
        total = total + lin_dots[i] * scalar_derivs[n - 1] * rest
    return total


def _memristor_reference(n, y, directions, a=8.0, b=10.0, c=0.0, d=2.0, e=0.1):
    """The memristor differential computed afresh for one call, row by row."""
    from oscillode.memristor import _reciprocal_derivs

    y1, y2, y3, y4, _ = y
    g = _reciprocal_derivs(y2, e)
    w = (1.0 + 3.0 * y2 * y2, 6.0 * y2, 6.0, 0.0, 0.0)
    h = []
    for m in range(5):
        val = 0.0
        for k in range(min(m, 2) + 1):
            val = val + math.comb(m, k) * w[k] * g[m - k]
        h.append(val)
    phi = (d - (1.0 + 3.0 * y1 * y1), -6.0 * y1, -6.0, 0.0, 0.0)
    v1 = [dirn[0] for dirn in directions]
    v2 = [dirn[1] for dirn in directions]
    dots_43 = [dirn[3] - dirn[2] for dirn in directions]
    dots_34 = [dirn[2] - dirn[3] for dirn in directions]
    dots_3 = [dirn[2] for dirn in directions]
    row2 = _linear_times_scalar_diff(n, y4 - y3, dots_43, g, v2)
    row3 = a * _linear_times_scalar_diff(n, y3, dots_3, phi, v1) - a * (
        _linear_times_scalar_diff(n, y3 - y4, dots_34, h, v2)
    )
    row4 = _linear_times_scalar_diff(n, y3 - y4, dots_34, h, v2)
    row1 = row5 = 0.0
    if n == 1:
        row1 = directions[0][2]
        row4 = row4 + directions[0][4]
        row5 = -b * directions[0][3] - c * directions[0][4]
    return np.array([row1, row2, row3, row4, row5], dtype=complex)


def _polynomial_reference(component_terms, n, y, directions):
    """Repeated directional derivatives of each component, then its value at y."""
    out = []
    for terms in component_terms:
        poly = dict(terms)
        for v in directions:
            nxt = {}
            for expo, coef in poly.items():
                for i, e in enumerate(expo):
                    if e:
                        key = expo[:i] + (e - 1,) + expo[i + 1 :]
                        nxt[key] = nxt.get(key, 0.0) + coef * e * v[i]
            poly = nxt
        out.append(sum(coef * np.prod([yi**e for yi, e in zip(y, expo)])
                       for expo, coef in poly.items()) + 0j)
    return np.array(out, dtype=complex)


def test_memristor_point_is_bit_identical():
    fld = memristor_field()
    rng = np.random.default_rng(11)
    for _ in range(5):
        y, dirs = _complex_samples(rng, 5, fld.max_order)
        point = fld.at(y)
        for n in range(1, fld.max_order + 1):
            expected = _memristor_reference(n, y, dirs[:n])
            assert np.array_equal(fld.apply(n, point, dirs[:n]), expected)
            assert np.array_equal(fld.apply(n, y, dirs[:n]), expected)


def test_memristor_order_three_closed_form_is_the_general_formula_bit_for_bit():
    # general complex entries, and entries with one or two signed-zero parts,
    # which make the sign of a zero result depend on every product; the bytes
    # of the results are compared, so -0.0 is told apart from 0.0.  Samples
    # with many zero entries find a closed form that multiplies by 1.0 once
    # less than the general formula, as samples without them do not
    fld = memristor_field()
    rng = np.random.default_rng(13)
    zero_results = 0
    for sample in range(6000):
        entries = (rng.normal(size=20) + 1j * rng.normal(size=20)).tolist()
        signs = rng.choice([0.0, -0.0], size=(20, 2)).tolist()
        zero = 0.25 if sample < 2000 else 0.8  # the share of entries that are zero
        kinds = rng.choice(4, size=20, p=[(1 - zero) / 2, zero, (1 - zero) / 4, (1 - zero) / 4])
        for i, kind in enumerate(kinds.tolist()):
            re, im = entries[i].real, entries[i].imag
            entries[i] = [complex(re, im), complex(*signs[i]), complex(re, signs[i][1]),
                          complex(signs[i][0], im)][kind]
        y, *dirs = np.array(entries, dtype=complex).reshape(4, 5)
        want = _memristor_reference(3, y.tolist(), [v.tolist() for v in dirs])
        assert fld.apply(3, fld.at(y), dirs).tobytes() == want.tobytes()
        assert fld.apply(3, y, dirs).tobytes() == want.tobytes()
        zero_results += int(np.count_nonzero(want[1:4] == 0))
    assert zero_results > 1000


def test_linear_and_polynomial_points_match_references():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    lin = linear_field(a)
    terms = [
        {(0, 1): 1.0, (3, 0): -0.2, (1, 2): 0.3 - 0.1j},
        {(1, 0): -1.0, (0, 1): -0.1, (2, 0): 0.15, (2, 2): 0.05},
    ]
    poly = polynomial_field(terms)
    for _ in range(4):
        y, dirs = _complex_samples(rng, 3, 4)
        point = lin.at(y)
        for n in range(1, 5):
            expected = a @ dirs[0] if n == 1 else np.zeros(3, dtype=complex)
            assert np.array_equal(lin.apply(n, point, dirs[:n]), expected)

        y, dirs = _complex_samples(rng, 2, 6)
        point = poly.at(y)
        for n in range(1, 7):
            got = poly.apply(n, point, dirs[:n])
            expected = _polynomial_reference(terms, n, y, dirs[:n])
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert float(np.max(np.abs(got - expected))) <= 1e-14 * scale
            assert np.array_equal(poly.apply(n, y, dirs[:n]), got)


def test_user_written_jet_works_through_points():
    calls = []

    def differential(n, y, directions):
        calls.append(n)
        return np.array([directions[0][1] if n == 1 else 0.0, -3.0 * y[0] ** 2 * np.prod(
            [v[0] for v in directions]) if n <= 3 else 0.0], dtype=complex)

    fld = VectorField(
        dimension=2,
        evaluate=lambda y: np.array([y[1], -(y[0] ** 3)]),
        jet=lambda y: lambda n, d: differential(n, y, d),
        max_order=4,
    )
    rng = np.random.default_rng(13)
    y, dirs = _complex_samples(rng, 2, 2)
    point = fld.at(y)
    assert np.array_equal(fld.apply(2, point, dirs), differential(2, y, dirs))
    assert np.array_equal(fld.apply(1, point, dirs[:1]), fld.apply(1, y, dirs[:1]))
    with pytest.raises(UnsupportedOrder):
        fld.apply(5, point, dirs * 3)
    with pytest.raises(ValueError):
        fld.apply(2, point, dirs[:1])


def test_apply_takes_orders_from_one():
    # f_0 is the field's value, which the field's call gives
    fld = memristor_field()
    y = np.full(5, 0.3 + 0.1j)
    for point in (y, fld.at(y)):
        with pytest.raises(ValueError, match=r"^f_0 is the field's value: call the field"):
            fld.apply(0, point, [])


def test_a_field_without_max_order_takes_every_order():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(2, 2))
    fld = linear_field(a)
    assert fld.max_order is None
    y, dirs = _complex_samples(rng, 2, 9)
    assert np.array_equal(fld.apply(9, y, dirs), np.zeros(2, dtype=complex))
    # validation checks one order per direction given, up to a finite max_order
    assert [n for n, _ in validate_field(fld, [(y, dirs[:6])])] == [1, 2, 3, 4, 5, 6]
    capped = VectorField(2, fld.evaluate, fld.jet, 3, fld.reads)
    assert [n for n, _ in validate_field(capped, [(y, dirs[:6])])] == [1, 2, 3]


# -- sparsity declarations ----------------------------------------------------------


def test_every_builtin_declaration_holds():
    from oscillode.problems import get_problem

    rng = np.random.default_rng(14)
    fields = [
        memristor_field(),
        linear_field(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))),
        polynomial_field([{(0, 1): 1.0, (1, 2): 0.3 - 0.1j}, {(2, 0): 0.15}]),
        *(get_problem(name).problem.field for name in ("linear_example", "worked_example")),
    ]
    for fld in fields:
        assert fld.reads is not None
        validate_field(fld, [_complex_samples(rng, fld.dimension, 4) for _ in range(4)])
    amplitudes = [
        constant_amplitude(None, [0.0, 2.0 - 1.0j, 0.0]),
        polynomial_amplitude(None, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        *(f for name in ("linear_example", "memristor", "worked_example")
          for f in get_problem(name).problem.forcings),
    ]
    for amp in amplitudes:
        for j in range(5):
            off = np.ones(amp.derivative(0, 0.0).size, dtype=bool)
            off[list(amp.support(j))] = False
            for t in rng.uniform(-2.0, 2.0, 3):
                assert not np.any(amp.derivative(j, t)[off])


def test_validate_detects_a_wrong_reads_declaration():
    base = memristor_field()
    rng = np.random.default_rng(15)
    # claims that f_n for n >= 2 ignores y2, on which g and h depend
    bad = VectorField(5, base.evaluate, base.jet, 4,
                      reads=lambda n: range(5) if n == 1 else (0, 2, 3))
    with pytest.raises(ValidationFailed, match=r"f_n reads beyond reads\(n\) at n = \[2, 3, 4\]"):
        validate_field(bad, [_complex_samples(rng, 5, 4) for _ in range(3)])


# -- sparse polynomial jets ------------------------------------------------------------


def _cubic_ladder(d):
    """y_i' = y_(i-1) - 2 y_i + y_(i+1) - 0.1 y_i^3: three or four monomials a row."""

    def power(i, e=1):
        return tuple(e if k == i else 0 for k in range(d))

    rows = []
    for i in range(d):
        row = {power(i): -2.0, power(i, 3): -0.1}
        row.update({power(k): 1.0 for k in (i - 1, i + 1) if 0 <= k < d})
        rows.append(row)
    return rows


def _assert_matches_reference(terms, fld, y, dirs, orders):
    point = fld.at(y)
    for n in orders:
        expected = _polynomial_reference(terms, n, y, dirs[:n])
        got = fld.apply(n, point, dirs[:n]) if n else fld(y)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert float(np.max(np.abs(got - expected))) <= 1e-14 * scale


def test_a_twenty_state_ladder_matches_the_reference():
    terms = _cubic_ladder(20)
    fld = polynomial_field(terms)
    rng = np.random.default_rng(16)
    samples = [_complex_samples(rng, 20, 3) for _ in range(3)]
    for y, dirs in samples:
        _assert_matches_reference(terms, fld, y, dirs, range(4))
    validate_field(fld, samples)
    assert list(fld.reads(1)) == list(range(20)) and list(fld.reads(3)) == list(range(20))
    assert list(fld.reads(4)) == []


@pytest.mark.parametrize("d", [3, 5, 8])
def test_random_sparse_polynomials_match_the_reference(d):
    rng = np.random.default_rng(d)
    for _ in range(4):
        terms = []
        for _ in range(d):
            row = {}
            for _ in range(rng.integers(1, 6)):
                expo = np.zeros(d, dtype=int)
                np.add.at(expo, rng.integers(0, d, rng.integers(0, 5)), 1)
                row[tuple(np.minimum(expo, 3).tolist())] = complex(*rng.normal(size=2))
            terms.append(row)
        y, dirs = _complex_samples(rng, d, 4)
        _assert_matches_reference(terms, polynomial_field(terms), y, dirs, range(5))


def test_a_zero_coefficient_changes_neither_values_nor_reads():
    terms = [{(0, 1, 0): 1.0, (2, 0, 0): 0.5j}, {(1, 1, 1): -0.3}, {(0, 0, 2): 2.0}]
    # a zero of higher degree, and one listed first
    padded = [terms[0], {**terms[1], (0, 4, 0): 0.0}, {(2, 0, 1): 0j, **terms[2]}]
    plain, with_zeros = polynomial_field(terms), polynomial_field(padded)
    rng = np.random.default_rng(17)
    y, dirs = _complex_samples(rng, 3, 5)
    assert np.array_equal(with_zeros(y), plain(y))
    for n in range(6):
        if n:
            assert np.array_equal(with_zeros.apply(n, y, dirs[:n]), plain.apply(n, y, dirs[:n]))
        assert list(with_zeros.reads(n)) == list(plain.reads(n))
    assert list(plain.reads(3)) == [0, 1, 2] and list(plain.reads(2)) == [0, 1, 2]


@pytest.mark.parametrize(
    "terms, message",
    [
        ([{(-1, 0): 1.0}, {}], r"component 0's exponent \(-1, 0\): entry=-1 must be"),
        ([{}, {(1.5, 0): 1.0}], r"component 1's exponent \(1.5, 0\): entry=1.5 must be"),
        ([{(1,): 1.0}, {}], r"component 0's exponent \(1,\) must be a tuple of 2 nonneg"),
    ],
    ids=["negative_exponent", "fractional_exponent", "short_exponent"],
)
def test_polynomial_field_rejects_malformed_terms(terms, message):
    with pytest.raises(ValueError, match=message):
        polynomial_field(terms)


def test_polynomial_field_takes_integral_float_exponents():
    as_floats = polynomial_field([{(2.0, 0): 1.0}, {(0, 1.0): -1.0}])
    as_ints = polynomial_field([{(2, 0): 1.0}, {(0, 1): -1.0}])
    rng = np.random.default_rng(18)
    y, dirs = _complex_samples(rng, 2, 2)
    assert np.array_equal(as_floats(y), as_ints(y))
    for n in range(1, 3):
        assert np.array_equal(as_floats.apply(n, y, dirs[:n]), as_ints.apply(n, y, dirs[:n]))
