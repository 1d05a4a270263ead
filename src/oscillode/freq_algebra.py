"""Frequency combinatorics for the oscillatory expansion.

Everything in this module is about bookkeeping of frequencies: base
frequencies are linear combinations (with exact rational coordinates) of a
user-declared basis of rationally independent reals, labels are multisets of
base-frequency indices, and index sets are the ordered collections of labels
present at each amplitude level.  Arithmetic on frequencies is exact in the
default mode, so statements like "these three frequencies sum to zero" are
decided by integer arithmetic rather than floating-point comparison.

A float mode with an absolute tolerance is available for frequencies whose
rational structure is unknown.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import SmallDenominatorError

__all__ = [
    "FrequencyBasis",
    "BaseFrequency",
    "FrequencyLabel",
    "IndexSet",
    "Partition",
    "MultiplicityRecord",
    "ordered_partitions",
    "level_partitions",
    "operand_multisets",
    "canonicalize",
    "extend_index_set",
    "rho",
    "build_index_chain",
    "default_delta_min",
    "format_label",
    "index_table_records",
    "format_index_table",
]


def _fraction(x) -> Fraction:
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(
                f"refusing to interpret non-integer float {x!r} as an exact "
                "coordinate; pass a Fraction or a string like '1/2'"
            )
        return Fraction(int(x))
    return Fraction(x)


class FrequencyBasis:
    """Basis of rationally independent reals over which frequencies live.

    In ``exact`` mode every base frequency must be given as a rational
    coordinate vector over this basis and frequency equality is exact
    coordinate equality.  In ``float`` mode frequencies are plain floats and
    equality means agreement within ``tolerance``.
    """

    def __init__(self, basis_reals=(1.0,), names=None, mode="exact", tolerance=1e-9):
        if mode not in ("exact", "float"):
            raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
        self.basis_reals = tuple(float(b) for b in basis_reals)
        if mode == "exact" and len(self.basis_reals) < 1:
            raise ValueError("exact mode needs at least one basis real")
        if names is None:
            names = tuple(f"b{k + 1}" for k in range(len(self.basis_reals)))
        self.names = tuple(names)
        if mode == "exact" and len(self.names) != len(self.basis_reals):
            raise ValueError("one name per basis real required")
        self.mode = mode
        self.tolerance = float(tolerance)
        if mode == "float" and self.tolerance <= 0:
            raise ValueError("float mode requires a positive tolerance")

    @property
    def dimension(self):
        return len(self.basis_reals)

    # -- operations on sigma values (coordinate tuples or floats) ------------

    def zero_sigma(self):
        if self.mode == "exact":
            return (Fraction(0),) * self.dimension
        return 0.0

    def sigma_add(self, a, b):
        if self.mode == "exact":
            return tuple(x + y for x, y in zip(a, b))
        return a + b

    def sigma_scale(self, a, n):
        if self.mode == "exact":
            return tuple(x * n for x in a)
        return a * n

    def sigma_equal(self, a, b):
        if self.mode == "exact":
            return a == b
        return abs(a - b) <= self.tolerance

    def sigma_is_zero(self, a):
        return self.sigma_equal(a, self.zero_sigma())

    def sigma_float(self, a):
        if self.mode == "exact":
            return math.fsum(float(q) * b for q, b in zip(a, self.basis_reals))
        return float(a)

    def sigma_string(self, a):
        """Render a sigma value as a compact exact expression, e.g. ``-1-2*sqrt(2)``."""
        if self.mode == "float":
            return "%.17g" % a
        parts = []
        for q, name in zip(a, self.names):
            if q == 0:
                continue
            if name == "1":
                body = str(abs(q))
            elif abs(q) == 1:
                body = name
            else:
                body = f"{abs(q)}*{name}"
            parts.append(("-" if q < 0 else "+", body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out


class BaseFrequency:
    """One base frequency: an index plus its exact (or float) value."""

    def __init__(self, index, basis, coords=None, value=None):
        self.index = int(index)
        self.basis = basis
        if basis.mode == "exact":
            if coords is None:
                raise ValueError("exact mode requires rational coordinates")
            self.coords = tuple(_fraction(c) for c in coords)
            if len(self.coords) != basis.dimension:
                raise ValueError("coordinate vector length must match basis dimension")
            if all(c == 0 for c in self.coords):
                raise ValueError(f"base frequency {index} must be nonzero")
            self.value = basis.sigma_float(self.coords)
        else:
            if value is None:
                raise ValueError("float mode requires a numeric value")
            self.coords = None
            self.value = float(value)
            if abs(self.value) <= basis.tolerance:
                raise ValueError(f"base frequency {index} must be nonzero")

    @property
    def sigma(self):
        return self.coords if self.basis.mode == "exact" else self.value

    def __repr__(self):
        return f"BaseFrequency({self.index}, {self.value:g})"


@dataclass(frozen=True)
class FrequencyLabel:
    """Canonical multiset of base-frequency indices with its exact frequency.

    ``counts[m-1]`` is the number of occurrences of base frequency ``m``.
    The zero label has all counts zero and frequency exactly zero.  Within an
    index set, labels are deduplicated by frequency value, so the stored
    counts are those of the representative multiset that first produced the
    value.
    """

    counts: tuple
    sigma: object
    float_value: float
    canonical_tuple: tuple

    @property
    def is_zero(self):
        return self.canonical_tuple == ()

    @property
    def order(self):
        return len(self.canonical_tuple)

    def __repr__(self):
        return f"Label{format_label(self.canonical_tuple)}"


def format_label(tup):
    """Human form of a label tuple: ``0`` for the zero label, ``3``, ``(1, 2)``..."""
    if not tup:
        return "0"
    if len(tup) == 1:
        return str(tup[0])
    return "(" + ", ".join(str(m) for m in tup) + ")"


def _counts_from_tuple(tup, m_count):
    """Count vector of a tuple of indices over ``{0..M}``; index 0 counts nowhere."""
    counts = [0] * (m_count + 1)
    for m in tup:
        counts[m] += 1
    return tuple(counts[1:])


def _sigma_from_counts(counts, basis, kappas):
    """Frequency of the multiset with ``counts[m-1]`` copies of base frequency ``m``."""
    sigma = basis.zero_sigma()
    for c, kappa in zip(counts, kappas):
        if c:
            sigma = basis.sigma_add(sigma, basis.sigma_scale(kappa.sigma, c))
    return sigma


def _tuple_from_counts(counts):
    return tuple(m for m, c in enumerate(counts, start=1) for _ in range(c))


def _label_from_counts(counts, basis, kappas):
    sigma = _sigma_from_counts(counts, basis, kappas)
    if basis.sigma_is_zero(sigma):
        return _zero_label(basis, len(kappas))
    return FrequencyLabel(tuple(counts), sigma, basis.sigma_float(sigma), _tuple_from_counts(counts))


def _zero_label(basis, m_count):
    zero = basis.zero_sigma()
    return FrequencyLabel((0,) * m_count, zero, 0.0, ())


def canonicalize(indices, basis, kappas):
    """Reduce an index tuple over ``{0..M}`` to its canonical frequency label.

    Zeros are stripped, the remaining indices sorted, and the frequency
    computed.  A tuple whose frequency sum is exactly zero collapses to the
    zero label regardless of its indices.
    """
    m_count = len(kappas)
    stripped = sorted(m for m in indices if m != 0)
    for m in stripped:
        if not 1 <= m <= m_count:
            raise ValueError(f"index {m} outside 0..{m_count}")
    counts = _counts_from_tuple(stripped, m_count)
    return _label_from_counts(counts, basis, kappas)


@dataclass(frozen=True)
class Partition:
    """Nondecreasing parts summing to a level, with permutation multiplicity."""

    parts: tuple
    theta: int


def _repeat_factorials(tup):
    """Product of ``m!`` over the runs of ``m`` equal entries of a sorted tuple."""
    out = 1
    for _, group in itertools.groupby(tup):
        out *= math.factorial(len(list(group)))
    return out


def _multiset_permutations_count(tup):
    return math.factorial(len(tup)) // _repeat_factorials(tup)


def ordered_partitions(n, r):
    """All nondecreasing ``n``-tuples of positive integers summing to ``r``.

    Each partition carries the number of distinct orderings it represents.
    """
    if n < 1 or n > r:
        raise ValueError(f"need 1 <= n <= r, got n={n}, r={r}")
    return [
        Partition(parts, _multiset_permutations_count(parts))
        for parts in itertools.combinations_with_replacement(range(1, r - n + 2), n)
        if sum(parts) == r
    ]


def level_partitions(r):
    """Partitions of ``r`` into any number of parts, by number of parts."""
    return [p for n in range(1, r + 1) for p in ordered_partitions(n, r)]


def operand_multisets(index_set, partitions):
    """Each multiset of operands over ``partitions``, once.

    A run of ``k`` equal parts ``l`` draws ``k`` level-``l`` labels of
    ``index_set`` with replacement, in label order; runs combine as a
    product.  An operand is named by its node key ``(level, label tuple)``,
    made once per run and shared by every multiset drawn from it.  Yields
    ``(operands, counts, weight)``: the operand keys, the sum of their count
    vectors, and ``1/prod(m_i!)`` with ``m_i`` the repeats of one key, which
    is the total ``1/n!`` of the multiset's orderings.  Multisets with equal
    weights share one ``Fraction``.
    """
    runs = {}
    weights = {}

    def run(level, k):
        if (level, k) not in runs:
            pool = index_set.labels_at_level(level)
            keys = [(level, label.canonical_tuple) for label in pool]
            runs[(level, k)] = [
                (
                    tuple(keys[i] for i in picks),
                    tuple(map(sum, zip(*(pool[i].counts for i in picks)))),
                    _repeat_factorials(picks),
                )
                for picks in itertools.combinations_with_replacement(range(len(pool)), k)
            ]
        return runs[(level, k)]

    for part in partitions:
        pieces = [run(level, len(list(group))) for level, group in itertools.groupby(part.parts)]
        for combo in itertools.product(*pieces):
            operands, counts, denominators = zip(*combo)
            den = math.prod(denominators)
            if den not in weights:
                weights[den] = Fraction(1, den)
            yield sum(operands, ()), tuple(map(sum, zip(*counts))), weights[den]


@dataclass(frozen=True)
class MultiplicityRecord:
    """Resonance count: ordered rearrangements of a source tuple hitting a target."""

    target: FrequencyLabel
    source_tuple: tuple
    rho: int


def rho(target, source_tuple, basis, kappas):
    """Number of ordered rearrangements of ``source_tuple`` whose frequency sum
    equals the target's frequency (index 0 contributes zero)."""
    sigma = _sigma_from_counts(_counts_from_tuple(source_tuple, len(kappas)), basis, kappas)
    if not basis.sigma_equal(sigma, target.sigma):
        return 0
    return _multiset_permutations_count(tuple(sorted(source_tuple)))


class IndexSet:
    """Ordered labels present at one amplitude level.

    Labels are kept in the natural order: the zero label, then singletons,
    then pairs, then triplets, each group lexicographic.  Because every
    extension only appends, the labels of level ``k`` form a prefix of the
    labels of any later level; ``prefix_sizes`` records those prefix lengths
    for levels ``1..r`` so earlier sets can be sliced out of this one.
    """

    def __init__(self, r, labels, prefix_sizes):
        self.r = int(r)
        self.labels = list(labels)
        self.prefix_sizes = tuple(prefix_sizes)
        if self.r >= 1:
            if len(self.prefix_sizes) != self.r:
                raise ValueError("prefix_sizes must cover levels 1..r")
            if self.prefix_sizes[-1] != len(self.labels):
                raise ValueError("last prefix size must equal the label count")

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def labels_at_level(self, k):
        """Labels of the level-``k`` subset (``1 <= k <= r``)."""
        if not 1 <= k <= self.r:
            raise ValueError(f"level {k} not in 1..{self.r}")
        return self.labels[: self.prefix_sizes[k - 1]]

    def finder(self, basis, kappas):
        """Function ``counts -> (key, label)``: a count vector's frequency in
        lookup form, computed once per vector, and this set's label with that
        frequency, or None.

        In exact mode the key is an integer tuple: the base frequencies'
        coordinates are scaled once by the common denominator of all of them,
        so a count vector's key is an integer dot product and the lookup is a
        dict lookup; no ``Fraction`` is made.  In float mode the key is the
        float frequency itself, matched by a tolerance scan.
        """
        if basis.mode == "exact":
            scale = math.lcm(*(q.denominator for kappa in kappas for q in kappa.coords))
            columns = list(zip(*((int(q * scale) for q in kappa.coords) for kappa in kappas)))

            def key_of(counts):
                return tuple(sum(map(operator.mul, counts, column)) for column in columns)

            find = {key_of(label.counts): label for label in self.labels}.get
        else:
            def key_of(counts):
                return _sigma_from_counts(counts, basis, kappas)

            def find(sigma):
                return next((lab for lab in self.labels if basis.sigma_equal(lab.sigma, sigma)), None)
        known = {}

        def resolve(counts):
            if counts not in known:
                key = key_of(counts)
                known[counts] = (key, find(key))
            return known[counts]

        return resolve

    def __repr__(self):
        return f"IndexSet(r={self.r}, {[format_label(l.canonical_tuple) for l in self.labels]})"


def default_delta_min(kappas):
    """Safety threshold below which a nonzero generated frequency is rejected."""
    return 1e-8 * max(abs(k.value) for k in kappas)


def base_index_set(basis, kappas):
    """Level-0 index set: the base frequencies themselves, no zero label."""
    labels = []
    for kappa in kappas:
        counts = tuple(1 if j == kappa.index - 1 else 0 for j in range(len(kappas)))
        labels.append(
            FrequencyLabel(counts, kappa.sigma, basis.sigma_float(kappa.sigma), (kappa.index,))
        )
    return IndexSet(0, labels, ())


def first_index_set(basis, kappas):
    """Level-1 index set: the zero label followed by the base frequencies."""
    labels = [_zero_label(basis, len(kappas))] + list(base_index_set(basis, kappas))
    return IndexSet(1, labels, (len(labels),))


def extend_index_set(index_set, partitions, basis, kappas, delta_min=None):
    """Build the next index set from level-``r`` combinations of lower labels.

    Every operand multiset over the given partitions (``operand_multisets``)
    is reduced to the sum of its count vectors; the frequency of each
    distinct sum is either matched to an existing label or appended as a
    new one (shortest representative tuple, lexicographic within a length).
    Frequencies are compared by the finder's key (``IndexSet.finder``); in
    exact mode a ``Fraction`` frequency is made only for each new label.
    A new nonzero frequency smaller in magnitude than ``delta_min`` aborts
    with a diagnostic naming the offending combination.
    """
    if index_set.r < 1 or not index_set.labels or not index_set.labels[0].is_zero:
        raise ValueError("extension starts from a level >= 1 set containing the zero label")
    if delta_min is None:
        delta_min = default_delta_min(kappas)
    m_count = len(kappas)
    resolve = index_set.finder(basis, kappas)
    new = {}  # key -> shortest tuple, in order of first appearance
    for counts in dict.fromkeys(c for _, c, _ in operand_multisets(index_set, partitions)):
        key, label = resolve(counts)
        if label is not None:
            continue
        if basis.mode == "float":
            key = next((s for s in new if basis.sigma_equal(s, key)), key)
        tup = _tuple_from_counts(counts)
        prev = new.get(key)
        if prev is None or (len(tup), tup) < (len(prev), prev):
            new[key] = tup

    new_labels = []
    for key, tup in new.items():
        counts = _counts_from_tuple(tup, m_count)
        sigma = _sigma_from_counts(counts, basis, kappas) if basis.mode == "exact" else key
        fv = basis.sigma_float(sigma)
        if abs(fv) < delta_min:
            raise SmallDenominatorError(
                f"generated frequency {basis.sigma_string(sigma)} ~ {fv:.3e} from "
                f"combination {format_label(tup)} is below delta_min={delta_min:.3e}",
                label=tup,
                sigma=fv,
            )
        new_labels.append(FrequencyLabel(counts, sigma, fv, tup))
    new_labels.sort(key=lambda lab: (len(lab.canonical_tuple), lab.canonical_tuple))

    labels = index_set.labels + new_labels
    return IndexSet(index_set.r + 1, labels, index_set.prefix_sizes + (len(labels),))


def build_index_chain(basis, kappas, r_max, delta_min=None):
    """Index sets for levels ``0..r_max`` (``U_2`` always equals ``U_1``)."""
    if r_max < 0:
        raise ValueError(f"level r_max={r_max} must be nonnegative")
    chain = [base_index_set(basis, kappas)]
    if r_max >= 1:
        chain.append(first_index_set(basis, kappas))
    for r in range(1, r_max):
        chain.append(extend_index_set(chain[-1], level_partitions(r), basis, kappas, delta_min))
    return chain


# -- text table -------------------------------------------------------------


def index_table_records(index_set, basis, kappas):
    """Rows (label, sigma string, sigma float, nonzero multiplicity records).

    Multiplicities are taken over all sorted source tuples of length ``r - 1``
    over ``{0..M}``, which is the natural source length for a level-``r`` set.
    Each source's frequency is summed and looked up once; a label's records
    are the sources with its frequency, in source order.
    """
    m_count = len(kappas)
    src_len = max(index_set.r - 1, 0)
    resolve = index_set.finder(basis, kappas)
    sources = {}
    for src in itertools.combinations_with_replacement(range(m_count + 1), src_len) if src_len else ():
        _, label = resolve(_counts_from_tuple(src, m_count))
        if label is not None:
            sources.setdefault(label.canonical_tuple, []).append(src)
    rows = []
    for label in index_set.labels:
        records = [
            MultiplicityRecord(label, src, _multiset_permutations_count(src))
            for src in sources.get(label.canonical_tuple, ())
        ]
        rows.append((label, basis.sigma_string(label.sigma), label.float_value, records))
    return rows


def format_index_table(index_set, basis, kappas):
    """Three-column text table of an index set: label, frequency, multiplicities."""
    lines = ["m | sigma | sigma_float | rho"]
    for label, sig_str, sig_float, records in index_table_records(index_set, basis, kappas):
        rho_cell = ", ".join(
            "rho^{%s}_{%s} = %d"
            % (
                ",".join(str(m) for m in rec.target.canonical_tuple) or "0",
                ",".join(str(m) for m in rec.source_tuple),
                rec.rho,
            )
            for rec in records
        )
        lines.append(
            "%s | %s | %s | %s"
            % (format_label(label.canonical_tuple), sig_str, "%.17g" % sig_float, rho_cell)
        )
    return "\n".join(lines) + "\n"
