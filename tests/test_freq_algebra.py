"""Frequency combinatorics: partitions, labels, index sets, multiplicities."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillode.errors import SmallDenominatorError
from oscillode.freq_algebra import (
    BaseFrequency,
    FrequencyBasis,
    _FrequencyKey,
    build_index_chain,
    canonicalize,
    format_index_table,
    format_label,
    index_table_records,
    level_partitions,
    rho,
)

SQRT2 = math.sqrt(2.0)


def worked_basis():
    return FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))


def worked_kappas(basis=None):
    basis = basis or worked_basis()
    return [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, 1)),
        BaseFrequency(3, basis, coords=(-1, -1)),
    ]


def memristor_kappas(basis=None):
    basis = basis or worked_basis()
    return [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(-1, 0)),
        BaseFrequency(3, basis, coords=(0, 1)),
        BaseFrequency(4, basis, coords=(0, -1)),
    ]


def brute_force_rho(target, source_tuple, basis, kappas):
    """Independent oracle: enumerate distinct permutations and count matches."""
    count = 0
    for perm in set(itertools.permutations(source_tuple)):
        if fraction_sum(kappas, [m for m in perm if m != 0]) == target.sigma:
            count += 1
    return count


def fraction_sum(kappas, tup):
    """Frequency of a tuple of base indices, summed as ``Fraction`` coordinates."""
    dimension = len(kappas[0].sigma)
    return tuple(sum((kappas[m - 1].sigma[j] for m in tup), Fraction(0)) for j in range(dimension))


def first_multisets(kappas, size):
    """Brute force: each distinct frequency of a multiset of at most ``size``
    base indices, the empty one included, with its first multiset in
    ``(len, tuple)`` order."""
    first = {}
    for n in range(size + 1):
        for tup in itertools.combinations_with_replacement(range(1, len(kappas) + 1), n):
            first.setdefault(fraction_sum(kappas, tup), tup)
    return first


# -- partitions ---------------------------------------------------------------


def theta(parts):
    """Distinct orderings of a partition's parts: n! / prod(m_i!) over runs."""
    repeats = math.prod(math.factorial(len(list(g))) for _, g in itertools.groupby(parts))
    return math.factorial(len(parts)) // repeats


def n_part_partitions(n, r):
    return [parts for parts in level_partitions(r) if len(parts) == n]


def test_partitions_two_of_three():
    parts = n_part_partitions(2, 3)
    assert [(p, theta(p)) for p in parts] == [((1, 2), 2)]


def test_partitions_single_part():
    parts = n_part_partitions(1, 1)
    assert [(p, theta(p)) for p in parts] == [((1,), 1)]


def test_partitions_level_four_multiplicities():
    assert [(p, theta(p)) for p in level_partitions(4)] == [
        ((4,), 1),
        ((1, 3), 2),
        ((2, 2), 1),
        ((1, 1, 2), 3),
        ((1, 1, 1, 1), 1),
    ]


@given(st.integers(min_value=1, max_value=9))
def test_partition_theta_sums_to_composition_count(r):
    for n in range(1, r + 1):
        total = sum(theta(p) for p in n_part_partitions(n, r))
        assert total == math.comb(r - 1, n - 1)


# -- canonicalization ---------------------------------------------------------


def test_canonicalize_strips_zero_and_sorts():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    label = canonicalize((0, 2), basis, kappas)
    assert label.canonical_tuple == (2,)
    assert label.float_value == pytest.approx(SQRT2, abs=1e-15)


def test_canonicalize_zero_sum_collapses_to_zero_label():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    label = canonicalize((1, 2, 3), basis, kappas)
    assert label.is_zero
    assert label.canonical_tuple == ()
    assert label.float_value == 0.0


def test_canonicalize_empty():
    basis = worked_basis()
    label = canonicalize((), basis, worked_kappas(basis))
    assert label.is_zero and label.float_value == 0.0


@pytest.mark.parametrize(
    "index, message",
    [(-1, "outside 0..3"), (4, "outside 0..3"), (1.5, "is not an integer")],
    ids=["-1", "4", "1.5"],
)
def test_index_outside_range_is_rejected_by_rho_and_canonicalize(index, message):
    # -1 once wrapped around to count as base frequency 3 in rho
    basis = worked_basis()
    kappas = worked_kappas(basis)
    target = canonicalize((3,), basis, kappas)
    with pytest.raises(ValueError, match=f"^index {index} {message}$"):
        rho(target, (index,), basis, kappas)
    with pytest.raises(ValueError, match=f"^index {index} {message}$"):
        canonicalize((index,), basis, kappas)


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=5))
def test_canonicalize_idempotent(indices):
    basis = worked_basis()
    kappas = worked_kappas(basis)
    label = canonicalize(tuple(indices), basis, kappas)
    again = canonicalize(label.canonical_tuple, basis, kappas)
    assert again == label


# -- index sets ---------------------------------------------------------------


def test_worked_example_u3():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    chain = build_index_chain(basis, kappas, 3)
    u3 = chain[3]
    tuples = [lab.canonical_tuple for lab in u3]
    assert tuples == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
        (2, 3),
        (3, 3),
    ]
    sig = {lab.canonical_tuple: lab.float_value for lab in u3}
    assert sig[(1, 1)] == pytest.approx(2.0, abs=1e-14)
    assert sig[(1, 2)] == pytest.approx(1.0 + SQRT2, abs=1e-14)
    assert sig[(1, 3)] == pytest.approx(-SQRT2, abs=1e-14)
    assert sig[(2, 2)] == pytest.approx(2.0 * SQRT2, abs=1e-14)
    assert sig[(2, 3)] == pytest.approx(-1.0, abs=1e-14)
    assert sig[(3, 3)] == pytest.approx(-2.0 - 2.0 * SQRT2, abs=1e-14)


def test_worked_example_u1_u2_equal():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    chain = build_index_chain(basis, kappas, 2)
    assert [l.canonical_tuple for l in chain[1]] == [(), (1,), (2,), (3,)]
    assert [l.canonical_tuple for l in chain[2]] == [(), (1,), (2,), (3,)]


def test_worked_example_u4_matches_reference_table():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    u4 = build_index_chain(basis, kappas, 4)[4]
    assert len(u4) == 19
    expect = {
        (): "0",
        (1,): "1",
        (2,): "sqrt(2)",
        (3,): "-1-sqrt(2)",
        (1, 1): "2",
        (1, 2): "1+sqrt(2)",
        (1, 3): "-sqrt(2)",
        (2, 2): "2*sqrt(2)",
        (2, 3): "-1",
        (3, 3): "-2-2*sqrt(2)",
        (1, 1, 1): "3",
        (1, 1, 2): "2+sqrt(2)",
        (1, 1, 3): "1-sqrt(2)",
        (1, 2, 2): "1+2*sqrt(2)",
        (1, 3, 3): "-1-2*sqrt(2)",
        (2, 2, 2): "3*sqrt(2)",
        (2, 2, 3): "-1+sqrt(2)",
        (2, 3, 3): "-2-sqrt(2)",
        (3, 3, 3): "-3-3*sqrt(2)",
    }
    got = {lab.canonical_tuple: basis.sigma_string(lab.sigma) for lab in u4}
    assert got == expect
    # no (1, 2, 3) label: that frequency sum is zero and is counted with 0
    assert (1, 2, 3) not in got


def test_memristor_u3_exclusions():
    basis = worked_basis()
    kappas = memristor_kappas(basis)
    u3 = build_index_chain(basis, kappas, 3)[3]
    tuples = {lab.canonical_tuple for lab in u3}
    assert len(u3) == 13
    assert (1, 2) not in tuples
    assert (3, 4) not in tuples
    assert {(1, 1), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3), (4, 4)} <= tuples


def test_prefix_property_and_zero_membership():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    chain = build_index_chain(basis, kappas, 5)
    for r in range(1, 5):
        lower, upper = chain[r], chain[r + 1]
        assert upper.labels[: len(lower)] == lower.labels
        assert lower.labels[0].is_zero


def test_sigma_injective_exact():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    for index_set in build_index_chain(basis, kappas, 5)[1:]:
        sigmas = [lab.sigma for lab in index_set]
        assert len(sigmas) == len(set(sigmas))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_chain_is_the_closed_form(data):
    """With distinct base frequencies, level ``r`` lists the distinct
    frequencies of all multisets of at most ``max(r - 1, 1)`` base indices,
    each once, under its shortest and then lexicographically smallest
    multiset, the zero label first and the rest ordered by
    ``(len, tuple)``; checked against a brute-force enumeration."""
    dimension = data.draw(st.integers(min_value=1, max_value=2))
    m_count = data.draw(st.integers(min_value=1, max_value=4))
    r_max = data.draw(st.integers(min_value=0, max_value=6))
    # some coordinates with denominators far beyond a machine word
    coordinate = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=2**70),
    )
    coords = data.draw(
        st.lists(
            st.tuples(*[coordinate] * dimension).filter(any),
            min_size=m_count,
            max_size=m_count,
            unique=True,
        )
    )
    basis = FrequencyBasis([1.0, SQRT2][:dimension])
    kappas = [BaseFrequency(m, basis, coords=c) for m, c in enumerate(coords, start=1)]
    # a near-cancelling pair of large-denominator frequencies is not the
    # subject here, so the small-denominator guard is set out of the way
    chain = build_index_chain(basis, kappas, r_max, delta_min=1e-300)

    assert [lab.canonical_tuple for lab in chain[0]] == [(m,) for m in range(1, m_count + 1)]
    for r in range(1, r_max + 1):
        first = first_multisets(kappas, max(r - 1, 1))
        tuples = [lab.canonical_tuple for lab in chain[r]]
        assert tuples == sorted(first.values(), key=lambda tup: (len(tup), tup))
        assert [lab.sigma for lab in chain[r]] == [fraction_sum(kappas, tup) for tup in tuples]


# Denominators 2**61 - 1 and 2**31 - 1, mixed signs, each third coordinate
# the sum of the other two, and a fourth frequency that cancels the first
# two: scaled coordinates near 2**96, far above a fixed 40-bit digit.
_P, _Q = 2**61 - 1, 2**31 - 1
LARGE_DENOMINATOR_COORDS = [
    (Fraction(1, _P), Fraction(-3, _Q), Fraction(1, _P) + Fraction(-3, _Q)),
    (Fraction(-2, _Q), Fraction(5, _P), Fraction(-2, _Q) + Fraction(5, _P)),
    (Fraction(7, _P * _Q), Fraction(-1, 3), Fraction(7, _P * _Q) - Fraction(1, 3)),
]
LARGE_DENOMINATOR_COORDS.append(tuple(-a - b for a, b in zip(*LARGE_DENOMINATOR_COORDS[:2])))


def test_packed_keys_are_exact_for_large_denominators():
    """A frequency's one-integer key decodes to its ``Fraction`` sum, and two
    keys are equal exactly when the frequencies are; index 0 weighs 0 and
    order does not count; the index chain matches a brute-force
    ``Fraction`` enumeration label by label."""
    basis = FrequencyBasis([1.0, SQRT2, math.sqrt(3.0)])
    kappas = [
        BaseFrequency(m, basis, coords=c) for m, c in enumerate(LARGE_DENOMINATOR_COORDS, start=1)
    ]
    key_of = _FrequencyKey(kappas)
    keys, sums = [], []
    for total in range(7):
        for tup in itertools.combinations_with_replacement(range(1, len(kappas) + 1), total):
            keys.append(key_of(tup))
            sums.append(fraction_sum(kappas, tup))
            assert key_of.sigma(keys[-1]) == sums[-1]
            assert (keys[-1] == 0) == (not any(sums[-1]))
    for (key_a, sum_a), (key_b, sum_b) in itertools.combinations(zip(keys, sums), 2):
        assert (key_a == key_b) == (sum_a == sum_b)
    assert len(set(keys)) == len(set(sums)) < len(sums)  # some frequencies repeat
    for tup in itertools.combinations_with_replacement(range(len(kappas) + 1), 6):
        nonzero = tuple(m for m in tup if m)
        assert key_of(tup) == key_of(nonzero) == key_of(tup[::-1])
        assert key_of.sigma(key_of(tup)) == fraction_sum(kappas, nonzero)

    chain = build_index_chain(basis, kappas, 6, delta_min=1e-30)
    for r, index_set in enumerate(chain[1:], start=1):
        first = first_multisets(kappas, max(r - 1, 1))
        assert [lab.canonical_tuple for lab in index_set] == sorted(
            first.values(), key=lambda tup: (len(tup), tup)
        )
        assert [lab.sigma for lab in index_set] == [
            fraction_sum(kappas, lab.canonical_tuple) for lab in index_set
        ]


def test_small_denominator_guard():
    eps = 1e-12
    basis = FrequencyBasis([1.0, 1.0 - eps], names=("1", "c"))
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, -1)),
    ]
    with pytest.raises(SmallDenominatorError) as err:
        build_index_chain(basis, kappas, 3)
    assert err.value.sigma == pytest.approx(eps, rel=1e-3)


# Fractional coordinates.  A frequency key scales every coordinate by the
# common denominator of all of them; a factor that is not a multiple of every
# denominator would truncate distinct frequencies to one key.
FRACTIONAL_BASES = {
    # 1/2 + 1/3 - 5/6 = 0: a resonant triple, as in the worked example
    "halves_thirds": ([1.0, SQRT2], [("1/2", 0), ("1/3", 1), ("-5/6", -1)]),
    # scaled by the largest denominator, 6, rather than by 12, both 1/4 and
    # 1/6 would truncate to 1 and collide
    "quarter_sixth": ([1.0], [("1/4",), ("1/6",), ("-1",)]),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL_BASES))
def test_fractional_coordinates_match_fraction_enumeration(name):
    reals, coords = FRACTIONAL_BASES[name]
    basis = FrequencyBasis(reals)
    kappas = [BaseFrequency(m, basis, coords=c) for m, c in enumerate(coords, start=1)]
    chain = build_index_chain(basis, kappas, 6)
    for r, index_set in enumerate(chain[1:], start=1):
        first = first_multisets(kappas, max(r - 1, 1))
        assert [lab.canonical_tuple for lab in index_set] == sorted(
            first.values(), key=lambda tup: (len(tup), tup)
        )
        assert {lab.sigma: lab.canonical_tuple for lab in index_set} == first
    for tup in (t for n in range(5) for t in itertools.combinations_with_replacement((1, 2, 3), n)):
        label = canonicalize(tup, basis, kappas)
        sigma = fraction_sum(kappas, tup)
        expected = (tup, sigma) if any(sigma) else ((), sigma)
        assert (label.canonical_tuple, label.sigma) == expected
    for target in chain[4]:
        for src in itertools.combinations_with_replacement(range(4), 3):
            assert rho(target, src, basis, kappas) == brute_force_rho(target, src, basis, kappas)


@pytest.mark.parametrize("delta_min", [math.nan, -1.0, 0.0, math.inf])
def test_delta_min_must_be_finite_and_positive(delta_min):
    """A delta_min that would switch the small-denominator guard off, or
    reject every frequency, is refused before any label is made."""
    basis = FrequencyBasis([1.0, 1.0 + 1e-12], names=("1", "c"))
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, -1)),
    ]
    message = f"delta_min={delta_min!r} must be finite and positive"
    for r_max in (0, 1, 3):
        with pytest.raises(ValueError, match=message):
            build_index_chain(basis, kappas, r_max, delta_min=delta_min)


def test_small_denominator_error_names_the_combination():
    """The guard's error names the combination that made the small frequency."""
    basis = FrequencyBasis([1.0, 1.0 - 1e-12], names=("1", "c"))
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, -1)),
    ]
    with pytest.raises(SmallDenominatorError) as err:
        build_index_chain(basis, kappas, 3)
    assert err.value.label == (1, 2)
    assert "1-c" in str(err.value)


@pytest.mark.parametrize("m_count", [1, 2])
@pytest.mark.parametrize("r_max", [0, 1, 3])
def test_a_zero_base_frequency_is_named_before_any_level(r_max, m_count):
    """2*b1 - b2 is zero on the basis (1, 2).  With it alone, default_delta_min
    is 0 too, so the zero test cannot lean on delta_min."""
    basis = FrequencyBasis([1.0, 2.0])
    kappas = [
        BaseFrequency(1, basis, coords=(2, -1)),
        BaseFrequency(2, basis, coords=(1, 0)),
    ][:m_count]
    message = r"^base frequency 2\*b1-b2 ~ 0\.000e\+00 of index 1 is zero$"
    with pytest.raises(SmallDenominatorError, match=message) as err:
        build_index_chain(basis, kappas, r_max)
    assert (err.value.label, err.value.sigma) == ((1,), 0.0)


def test_a_base_frequency_below_delta_min_is_named():
    basis = worked_basis()
    message = r"^base frequency 1 ~ 1\.000e\+00 of index 1 is below delta_min=1\.200e\+00$"
    with pytest.raises(SmallDenominatorError, match=message):
        build_index_chain(basis, worked_kappas(basis), 1, delta_min=1.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_a_basis_real_must_be_finite_and_nonzero(bad):
    message = rf"^basis real 2 is {bad!r}; every basis real must be finite and nonzero$"
    with pytest.raises(ValueError, match=message):
        FrequencyBasis([1.0, bad])


# -- multiplicities -----------------------------------------------------------


def test_rho_reference_values():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    u4 = build_index_chain(basis, kappas, 4)[4]
    by_tuple = {lab.canonical_tuple: lab for lab in u4}
    assert rho(by_tuple[(1, 2)], (0, 1, 2), basis, kappas) == 6
    assert rho(by_tuple[(1,)], (0, 1), basis, kappas) == 2
    assert rho(by_tuple[(1, 1)], (1, 1), basis, kappas) == 1
    assert rho(by_tuple[()], (1, 2, 3), basis, kappas) == 6
    assert rho(by_tuple[()], (0, 0, 0), basis, kappas) == 1
    assert rho(by_tuple[(2, 2, 3)], (2, 2, 3), basis, kappas) == 3
    assert rho(by_tuple[(1, 1)], (0, 1, 1), basis, kappas) == 3
    assert rho(by_tuple[(2,)], (0, 0, 2), basis, kappas) == 3
    # non-matching source
    assert rho(by_tuple[(1,)], (2, 2), basis, kappas) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rho_matches_brute_force_random(data):
    m_count = data.draw(st.integers(min_value=1, max_value=4))
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    coords = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=-3, max_value=3),
            ).filter(lambda c: c != (0, 0)),
            min_size=m_count,
            max_size=m_count,
        )
    )
    kappas = [BaseFrequency(i + 1, basis, coords=c) for i, c in enumerate(coords)]
    tup = tuple(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=m_count), min_size=1, max_size=4
            )
        )
    )
    target = canonicalize(
        tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=m_count), min_size=0, max_size=3
                )
            )
        ),
        basis,
        kappas,
    )
    src = tuple(sorted(tup))
    assert rho(target, src, basis, kappas) == brute_force_rho(target, src, basis, kappas)


def test_rho_brute_force_bulk_seeded():
    """1000 random (frequency set, tuple) cases against the enumeration oracle."""
    import random

    rng = random.Random(20240817)
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    cases = 0
    while cases < 1000:
        m_count = rng.randint(1, 4)
        coords = []
        while len(coords) < m_count:
            c = (rng.randint(-2, 2), rng.randint(-2, 2))
            if c != (0, 0) and c not in coords:
                coords.append(c)
        kappas = [BaseFrequency(i + 1, basis, coords=c) for i, c in enumerate(coords)]
        tup = tuple(sorted(rng.randint(0, m_count) for _ in range(rng.randint(1, 4))))
        target = canonicalize(
            tuple(rng.randint(0, m_count) for _ in range(rng.randint(0, 3))),
            basis,
            kappas,
        )
        assert rho(target, tup, basis, kappas) == brute_force_rho(
            target, tup, basis, kappas
        )
        cases += 1


# -- sigma values and rendering ------------------------------------------------


def test_sigma_value_examples():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    u4 = build_index_chain(basis, kappas, 4)[4]
    by_tuple = {lab.canonical_tuple: lab for lab in u4}
    assert by_tuple[(3,)].float_value == pytest.approx(-1.0 - SQRT2, abs=1e-12)
    assert by_tuple[()].float_value == 0.0
    assert by_tuple[(3, 3, 3)].float_value == pytest.approx(-3.0 - 3.0 * SQRT2, abs=1e-12)


def test_format_label():
    assert format_label(()) == "0"
    assert format_label((2,)) == "2"
    assert format_label((1, 2)) == "(1, 2)"


def test_index_table_records_match_oracle():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    u4 = build_index_chain(basis, kappas, 4)[4]
    rows = index_table_records(u4, basis, kappas)
    assert len(rows) == 19
    for label, _sig_str, sig_float, records in rows:
        assert sig_float == pytest.approx(label.float_value)
        for rec in records:
            assert rec.rho == brute_force_rho(label, rec.source_tuple, basis, kappas)
            assert rec.rho > 0


def test_format_index_table_contains_reference_rows():
    basis = worked_basis()
    kappas = worked_kappas(basis)
    u4 = build_index_chain(basis, kappas, 4)[4]
    text = format_index_table(u4, basis, kappas)
    assert "(2, 2, 3) | -1+sqrt(2) |" in text
    assert "rho^{1,2}_{0,1,2} = 6" in text
    assert "rho^{0}_{1,2,3} = 6" in text
    assert text.count("\n") == 20  # header + 19 rows


def test_duplicate_fraction_rejects_float():
    basis = worked_basis()
    with pytest.raises(ValueError):
        BaseFrequency(1, basis, coords=(0.5, 0))
    ok = BaseFrequency(1, basis, coords=(Fraction(1, 2), 0))
    assert ok.value == pytest.approx(0.5)
